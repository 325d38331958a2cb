type lit = int
type clause = lit array

type t = { mutable vars : int; mutable cls : clause list; mutable count : int }

let create () = { vars = 0; cls = []; count = 0 }

let new_var t =
  t.vars <- t.vars + 1;
  t.vars

let num_vars t = t.vars
let num_clauses t = t.count

let neg l = -l

(* The clause is kept sorted ascending without duplicates; it is a
   tautology when some literal occurs with both signs. On the sorted
   array the negative literals come first with falling magnitudes and
   the positive ones, read from the end, fall too, so one pass from
   both ends meets every candidate pair. *)
let add_clause t lits =
  if lits = [] then invalid_arg "Cnf.add_clause: empty clause";
  List.iter
    (fun l ->
      if l = 0 then invalid_arg "Cnf.add_clause: zero literal";
      if abs l > t.vars then invalid_arg "Cnf.add_clause: unallocated variable")
    lits;
  let a = Array.of_list lits in
  Array.sort Int.compare a;
  let n = ref 1 in
  for i = 1 to Array.length a - 1 do
    if a.(i) <> a.(!n - 1) then begin
      a.(!n) <- a.(i);
      incr n
    end
  done;
  let rec tautology i j =
    i < j && a.(i) < 0 && a.(j) > 0
    && (-a.(i) = a.(j) || if -a.(i) > a.(j) then tautology (i + 1) j else tautology i (j - 1))
  in
  if not (tautology 0 (!n - 1)) then begin
    t.cls <- (if !n = Array.length a then a else Array.sub a 0 !n) :: t.cls;
    t.count <- t.count + 1
  end

let clauses t = Array.of_list (List.rev t.cls)
