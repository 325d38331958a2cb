(* Bounded MPSC job queue with load-shedding admission.

   Connection handler threads [try_push]; the single worker thread
   [pop]s. The queue never blocks a producer: admission either succeeds
   immediately or fails immediately (the caller sheds the request with
   a typed [Overloaded] reply), so a traffic burst costs bounded memory
   and bounded client latency instead of an unbounded backlog. *)

type 'a t = {
  capacity : int;
  items : 'a Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bq.create: capacity must be >= 1";
  {
    capacity;
    items = Queue.create ();
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
  }

let with_lock t f = Mutex.protect t.mutex f

let try_push t x =
  with_lock t (fun () ->
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.push x t.items;
        Condition.signal t.nonempty;
        true
      end)

(* Blocks until an item is available or the queue is closed AND empty:
   a closed queue still drains — jobs admitted before the drain began
   keep their promise of a reply. *)
let pop t =
  with_lock t (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.items) then Some (Queue.pop t.items)
        else if t.closed then None
        else begin
          Condition.wait t.nonempty t.mutex;
          wait ()
        end
      in
      wait ())

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let closed t = with_lock t (fun () -> t.closed)
let depth t = with_lock t (fun () -> Queue.length t.items)
let capacity t = t.capacity
