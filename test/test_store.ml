(* Tests for lib/store: the content-addressed campaign store. Covers
   the durable key/value layer (roundtrip, key canonicalisation, format
   guard, paranoid reads), the fetch-or-compute memoisation shape (hit
   short-circuit, degrade guard, chaos containment), maintenance
   (stats, gc, invalidate) — and the differential guarantee the store
   exists for: a warm re-run of a pipeline stage returns a result
   bit-identical to the cold run without redoing the work. *)

module Store = Mutsamp_store.Store
module Json = Mutsamp_obs.Json
module Metrics = Mutsamp_obs.Metrics
module Rerror = Mutsamp_robust.Error
module Chaos = Mutsamp_robust.Chaos
module Degrade = Mutsamp_robust.Degrade
module Ctx = Mutsamp_exec.Ctx
module Pattern = Mutsamp_fault.Pattern
module Registry = Mutsamp_circuits.Registry
module Operator = Mutsamp_mutation.Operator
module Config = Mutsamp_core.Config
module Pipeline = Mutsamp_core.Pipeline
module Experiments = Mutsamp_core.Experiments
module Cache = Mutsamp_core.Cache
module Netlist = Mutsamp_netlist.Netlist
module Gate = Mutsamp_netlist.Gate
module Prpg = Mutsamp_atpg.Prpg
module Prng = Mutsamp_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Chaos, degradation and the store counters are process-global. *)
let clean f () =
  Chaos.disarm_all ();
  Degrade.reset ();
  Store.reset_counters ();
  Fun.protect
    ~finally:(fun () ->
      Chaos.disarm_all ();
      Degrade.reset ();
      Store.reset_counters ())
    f

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* A fresh store rooted in a temp directory, removed afterwards. *)
let with_store f =
  let dir = Filename.temp_file "mutsamp_store" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  match Store.open_dir dir with
  | Ok s -> f s
  | Error e -> Alcotest.failf "open_dir failed: %s" (Rerror.to_string e)

let count name =
  match List.assoc_opt name (Store.counters ()) with
  | Some n -> n
  | None -> Alcotest.failf "counter %s missing" name

(* ------------------------------------------------------------------ *)
(* Key/value layer                                                    *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_store @@ fun s ->
  let k = Store.key ~ns:"fsim" [ ("netlist", "abc"); ("seq", "def") ] in
  check_bool "fresh store misses" true (Store.find s k = None);
  check_int "miss counted" 1 (count "misses");
  let payload = Json.Obj [ ("detected", Json.Int 7) ] in
  Store.put s k payload;
  check_int "put counted" 1 (count "puts");
  (match Store.find s k with
   | Some v -> check_bool "payload intact" true (v = payload)
   | None -> Alcotest.fail "entry lost");
  check_int "hit counted" 1 (count "hits");
  (* Part order is canonicalised: the reversed key addresses the same
     entry. *)
  let k' = Store.key ~ns:"fsim" [ ("seq", "def"); ("netlist", "abc") ] in
  check_bool "order-insensitive key" true (Store.find s k' = Some payload);
  (* A second handle on the same directory sees the entry (durability,
     not process state). *)
  match Store.open_dir (Store.dir s) with
  | Ok s2 -> check_bool "persists across handles" true (Store.find s2 k = Some payload)
  | Error e -> Alcotest.failf "reopen failed: %s" (Rerror.to_string e)

let test_key_validation () =
  (match Store.key ~ns:"has space" [ ("a", "b") ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "unsafe namespace accepted");
  match Store.key ~ns:"ok" [ ("", "b") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty field accepted"

let test_version_guard () =
  with_store @@ fun s ->
  let vfile = Filename.concat (Store.dir s) "VERSION" in
  let oc = open_out vfile in
  output_string oc "mutsamp-store 999\n";
  close_out oc;
  match Store.open_dir (Store.dir s) with
  | Error (Rerror.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
  | Ok _ -> Alcotest.fail "foreign format opened"

(* Paranoid reads: unparsable bytes, or a valid document whose embedded
   key is not the requested one, read as a counted miss — never as a
   wrong payload and never as an exception. *)
let test_corrupt_entry_is_miss () =
  with_store @@ fun s ->
  let ka = Store.key ~ns:"ns" [ ("circuit", "c17") ] in
  let kb = Store.key ~ns:"ns" [ ("circuit", "c432") ] in
  Store.put s ka (Json.Int 1);
  Store.put s kb (Json.Int 2);
  let ns_dir = Filename.concat (Store.dir s) "ns" in
  let entries =
    Sys.readdir ns_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  check_int "two entries on disk" 2 (List.length entries);
  (* Garbage bytes. *)
  let f0 = Filename.concat ns_dir (List.nth entries 0) in
  let oc = open_out f0 in
  output_string oc "{ not json";
  close_out oc;
  (* A well-formed document under the wrong filename: copy entry 1 over
     entry 0's slot is indistinguishable from a hash collision, so the
     embedded-key check must reject it. *)
  let f1 = Filename.concat ns_dir (List.nth entries 1) in
  let read path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic)
    @@ fun () -> really_input_string ic (in_channel_length ic)
  in
  let doc1 = read f1 in
  Store.reset_counters ();
  check_bool "garbage reads as miss" true
    (Store.find s ka = None || Store.find s kb = None);
  let oc = open_out_bin f0 in
  output_string oc doc1;
  close_out oc;
  check_bool "key mismatch reads as miss" true
    (Store.find s ka = None || Store.find s kb = None);
  check_bool "corruption counted" true (count "corrupt" >= 2)

(* ------------------------------------------------------------------ *)
(* fetch_or_compute                                                   *)
(* ------------------------------------------------------------------ *)

let encode_int v = Json.Int v

let decode_int = function Json.Int v -> Some v | _ -> None

let test_fetch_or_compute () =
  with_store @@ fun s ->
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  let fetch store =
    Store.fetch_or_compute store ~ns:"x" ~parts:(fun () -> [ ("k", "v") ])
      ~encode:encode_int ~decode:decode_int compute
  in
  (* No store: straight through, every time. *)
  check_int "no store computes" 42 (fetch None);
  check_int "no store computes again" 42 (fetch None);
  check_int "computed twice" 2 !calls;
  (* Store: first call computes and records, second replays. *)
  check_int "cold computes" 42 (fetch (Some s));
  check_int "computed on miss" 3 !calls;
  check_int "warm replays" 42 (fetch (Some s));
  check_int "not recomputed" 3 !calls;
  check_bool "hit counted" true (count "hits" >= 1)

let test_fetch_decode_mismatch () =
  with_store @@ fun s ->
  (* An entry a newer codec cannot decode is a miss: the computation
     reruns and overwrites the entry. *)
  let k = Store.key ~ns:"x" [ ("k", "v") ] in
  Store.put s k (Json.String "stale codec");
  let calls = ref 0 in
  let v =
    Store.fetch_or_compute (Some s) ~ns:"x" ~parts:(fun () -> [ ("k", "v") ])
      ~encode:encode_int ~decode:decode_int
      (fun () -> incr calls; 7)
  in
  check_int "recomputed" 7 v;
  check_int "compute ran" 1 !calls;
  check_bool "replaced entry decodes now" true (Store.find s k = Some (Json.Int 7))

let test_degrade_guard () =
  with_store @@ fun s ->
  let calls = ref 0 in
  let degraded_compute () =
    incr calls;
    Degrade.note ~stage:Rerror.Fsim (Rerror.Timeout Rerror.Fsim);
    13
  in
  let fetch f =
    Store.fetch_or_compute (Some s) ~ns:"x" ~parts:(fun () -> [ ("k", "v") ])
      ~encode:encode_int ~decode:decode_int f
  in
  (* A budget-cut / chaos-hit computation returns its partial result
     but must not poison the store. *)
  check_int "degraded result returned" 13 (fetch degraded_compute);
  check_int "degraded result not cached" 13 (fetch degraded_compute);
  check_int "computed both times" 2 !calls;
  (* Once the run is clean, the result is recorded as usual. *)
  Degrade.reset ();
  check_int "clean result" 21 (fetch (fun () -> incr calls; 21));
  check_int "clean result cached" 21 (fetch (fun () -> incr calls; 99));
  check_int "no recompute after clean store" 3 !calls

let test_put_contained () =
  with_store @@ fun s ->
  let k = Store.key ~ns:"x" [ ("k", "v") ] in
  (* An injected torn write: put swallows the failure, counts it, and
     the store stays consistent (no entry, no litter observable as an
     entry). *)
  Chaos.arm Chaos.Report_write (Chaos.Truncate 4);
  Store.put s k (Json.String "doomed");
  check_bool "torn put contained" true (count "put_errors" >= 1);
  check_bool "no torn entry observable" true (Store.find s k = None);
  Chaos.disarm_all ();
  (* An injected exception mid-write must not escape put either. *)
  Chaos.arm Chaos.Report_write Chaos.Exception;
  Store.put s k (Json.String "doomed too");
  check_bool "injected exception contained" true (count "put_errors" >= 2);
  Chaos.disarm_all ();
  check_bool "still no entry" true (Store.find s k = None);
  (* And the fault cleared, the same put goes through. *)
  Store.put s k (Json.String "ok");
  check_bool "recovered" true (Store.find s k = Some (Json.String "ok"))

(* ------------------------------------------------------------------ *)
(* Maintenance                                                        *)
(* ------------------------------------------------------------------ *)

let test_stats_gc_invalidate () =
  with_store @@ fun s ->
  let ka = Store.key ~ns:"fsim" [ ("circuit", "c17") ] in
  let kb = Store.key ~ns:"fsim" [ ("circuit", "c432") ] in
  let kc = Store.key ~ns:"t1row" [ ("circuit", "c17") ] in
  Store.put s ka (Json.Int 1);
  Store.put s kb (Json.Int 2);
  Store.put s kc (Json.Int 3);
  (* Plant a stale temp file, as an interrupted writer would. *)
  let stale = Filename.concat (Filename.concat (Store.dir s) "fsim") "x.json.tmp.1.2" in
  let oc = open_out stale in
  output_string oc "partial";
  close_out oc;
  let st = Store.stats s in
  check_int "entries" 3 st.Store.entries;
  check_int "stale tmp seen" 1 st.Store.stale_tmp;
  check_bool "bytes counted" true (st.Store.bytes > 0);
  check_bool "namespaces listed" true
    (st.Store.namespaces = [ ("fsim", 2); ("t1row", 1) ]);
  (* Unfiltered gc removes only the stale temp file. *)
  check_int "gc removes tmp" 1 (Store.gc s ());
  check_bool "tmp gone" false (Sys.file_exists stale);
  check_int "entries survive tmp gc" 3 (Store.stats s).Store.entries;
  (* Invalidation by key part: only the matching fsim entry goes. *)
  check_int "invalidate by field" 1
    (Store.invalidate s ~namespace:"fsim" ~field:("circuit", "c17") ());
  check_bool "target gone" true (Store.find s ka = None);
  check_bool "sibling intact" true (Store.find s kb = Some (Json.Int 2));
  (* Namespace gc drops the rest of fsim, leaving t1row alone. *)
  check_int "gc namespace" 1 (Store.gc s ~namespace:"fsim" ());
  check_bool "other namespace intact" true (Store.find s kc = Some (Json.Int 3));
  check_bool "emptied namespace unlisted" true
    ((Store.stats s).Store.namespaces = [ ("t1row", 1) ]);
  (* Blanket invalidation empties the store. *)
  check_int "invalidate all" 1 (Store.invalidate s ());
  check_int "empty" 0 (Store.stats s).Store.entries;
  check_bool "removals counted" true
    (count "gc_removed" >= 2 && count "invalidated" >= 2)

(* ------------------------------------------------------------------ *)
(* Differential: warm runs replay cold runs bit-identically           *)
(* ------------------------------------------------------------------ *)

let prepare name =
  match Registry.find name with
  | Some e -> Pipeline.prepare (e.Registry.design ())
  | None -> Alcotest.failf "%s missing" name

let c17_pipeline = lazy (prepare "c17")

let tiny_config =
  {
    Config.quick with
    Config.vector =
      {
        Config.quick.Config.vector with
        Mutsamp_validation.Vectorgen.max_stall = 40;
        max_vectors = 256;
      };
    Config.min_random_length = 64;
    random_multiplier = 4;
  }

(* Run [f] with metrics collection on and return (result, counters). *)
let with_metrics f =
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect ~finally:(fun () -> Metrics.reset (); Metrics.set_enabled false)
  @@ fun () ->
  let r = f () in
  (r, (Metrics.snapshot ()).Metrics.counters)

(* [p] with its last NAND turned into an AND and the content hashes
   recomputed. The fault list is kept: the flip moves no fault site, so
   the fault hash stays equal and only the netlist part of the key can
   tell the edit apart. *)
let flip_one_gate (p : Pipeline.t) =
  let gates = Array.copy p.Pipeline.netlist.Netlist.gates in
  let last = ref (-1) in
  Array.iteri (fun v (g : Gate.t) -> if g.Gate.kind = Gate.Nand then last := v) gates;
  if !last < 0 then Alcotest.fail "no NAND gate to flip";
  gates.(!last) <- { (gates.(!last)) with Gate.kind = Gate.And };
  let netlist = { p.Pipeline.netlist with Netlist.gates } in
  let hashes =
    lazy
      {
        Cache.design_h = Cache.design_hash p.Pipeline.design;
        netlist_h = Cache.netlist_hash netlist;
        faults_h = Cache.faults_hash p.Pipeline.faults;
      }
  in
  { p with Pipeline.netlist; hashes }

(* One ["fsim"] key serves both regimes: for c17 (combinational) and
   b01 (sequential) a cold run equals a storeless one and a warm run
   replays it; a one-gate edit of c17 misses instead of replaying the
   stale entry. *)
let test_fsim_cold_warm () =
  with_store @@ fun s ->
  let ctx = Ctx.with_store s in
  let replays name p patterns =
    let plain = Pipeline.fault_simulate p patterns in
    let cold = Pipeline.fault_simulate ~ctx p patterns in
    check_bool (name ^ ": cold equals storeless") true (cold = plain);
    Store.reset_counters ();
    let warm, counters =
      with_metrics (fun () -> Pipeline.fault_simulate ~ctx p patterns)
    in
    check_bool (name ^ ": warm equals cold") true (warm = cold);
    check_int (name ^ ": warm hit the store") 1 (count "hits");
    check_int (name ^ ": warm missed nothing") 0 (count "misses");
    (* The acceptance bar: a warm run evaluates zero pattern·fault
       pairs — no fsim.* counter moves at all. *)
    List.iter
      (fun (counter, v) ->
        check_bool
          (Printf.sprintf "%s: unexpected %s=%d on warm run" name counter v)
          false
          (String.length counter >= 5 && String.sub counter 0 5 = "fsim."))
      counters;
    cold
  in
  let c17 = Lazy.force c17_pipeline in
  let inputs = Array.length c17.Pipeline.netlist.Netlist.input_nets in
  let patterns = Array.init 32 (fun code -> Pattern.of_code ~inputs code) in
  let c17_cold = replays "c17" c17 patterns in
  let b01 = prepare "b01" in
  let b01_patterns =
    Prpg.uniform_sequence (Prng.create 7)
      ~bits:(Array.length b01.Pipeline.netlist.Netlist.input_nets)
      ~length:32
  in
  ignore (replays "b01" b01 b01_patterns);
  let edited = flip_one_gate c17 in
  Store.reset_counters ();
  let r = Pipeline.fault_simulate ~ctx edited patterns in
  check_bool "edited c17 misses" true (count "misses" >= 1);
  check_int "edited c17 replays nothing" 0 (count "hits");
  check_bool "edited c17 equals storeless" true
    (r = Pipeline.fault_simulate edited patterns);
  check_bool "the edit changes the result" true (r <> c17_cold)

let test_classify_cold_warm () =
  with_store @@ fun s ->
  let p = Lazy.force c17_pipeline in
  let plain = Pipeline.classify_equivalents ~screen:64 ~seed:5 p in
  let ctx = Ctx.with_store s in
  let cold = Pipeline.classify_equivalents ~screen:64 ~ctx ~seed:5 p in
  Alcotest.(check (list int)) "cold equals storeless" plain cold;
  Store.reset_counters ();
  let warm = Pipeline.classify_equivalents ~screen:64 ~ctx ~seed:5 p in
  Alcotest.(check (list int)) "warm equals cold" cold warm;
  check_int "warm was a pure replay" 1 (count "hits");
  check_int "no recompute stored" 0 (count "puts")

let test_t1row_cold_warm () =
  with_store @@ fun s ->
  let p = Lazy.force c17_pipeline in
  let config = { tiny_config with Config.seed = 11 } in
  let run ctx = Experiments.operator_efficiency ~config ?ctx p ~name:"c17" in
  let plain = run None in
  let ctx = Ctx.with_store s in
  let cold = run (Some ctx) in
  check_bool "cold equals storeless" true (cold = plain);
  let (warm, counters) = with_metrics (fun () -> run (Some ctx)) in
  check_bool "warm equals cold" true (warm = cold);
  check_bool "warm hit the store" true (count "hits" >= 1);
  (* Replayed Table-1 rows regenerate no vectors and simulate no
     faults. *)
  List.iter
    (fun (name, v) ->
      let prefixed p =
        String.length name >= String.length p
        && String.sub name 0 (String.length p) = p
      in
      check_bool (Printf.sprintf "unexpected %s=%d on warm run" name v) false
        (prefixed "fsim." || prefixed "vectorgen."))
    counters

(* ------------------------------------------------------------------ *)
(* Robustness: corrupt reads under chaos, concurrent maintenance      *)
(* ------------------------------------------------------------------ *)

module Pool = Mutsamp_exec.Pool

(* Satellite invariant: chaos-corrupted store reads during a warm
   --jobs 4 replay are counted (store.corrupt), degrade to a
   recompute, and stay bit-identical to the cold run — the store is an
   accelerator, never a correctness hazard. *)
let test_chaos_corrupt_warm_replay () =
  with_store @@ fun s ->
  let p = Lazy.force c17_pipeline in
  let inputs = Array.length p.Pipeline.netlist.Mutsamp_netlist.Netlist.input_nets in
  let patterns = Array.init 32 (fun code -> Pattern.of_code ~inputs code) in
  let pool = Pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool)
  @@ fun () ->
  let ctx = Ctx.make ~pool ~store:s () in
  let cold = Pipeline.fault_simulate ~ctx p patterns in
  Store.reset_counters ();
  Chaos.arm Chaos.Store_read (Chaos.Truncate 5);
  let corrupted = Pipeline.fault_simulate ~ctx p patterns in
  Chaos.disarm_all ();
  check_bool "corrupted replay bit-identical to cold" true (corrupted = cold);
  check_bool "corrupt read counted" true (count "corrupt" >= 1);
  check_int "corrupt read is not a hit" 0 (count "hits");
  check_bool "recompute re-stored the entry" true (count "puts" >= 1);
  (* The recompute healed the entry: the next run is a pure replay. *)
  Store.reset_counters ();
  let healed = Pipeline.fault_simulate ~ctx p patterns in
  check_bool "healed replay bit-identical" true (healed = cold);
  check_bool "healed replay hits" true (count "hits" >= 1);
  check_int "healed replay stores nothing" 0 (count "puts")

(* Campaign cells ask for the pipeline's content hashes (store keys)
   from worker domains, and a concurrent first [Lazy.force] raises
   [CamlinternalLazy.Undefined] in OCaml 5. Every round starts from a
   fresh pipeline whose hashes are unforced, with four domains racing to
   key their Table-1 cells; the first round also fills the store, the
   later ones replay from it, so many rounds stay cheap. *)
let test_cold_store_cells_hash_race () =
  let design =
    match Registry.find "c17" with
    | Some e -> e.Registry.design ()
    | None -> Alcotest.fail "c17 missing"
  in
  let config = { tiny_config with Config.seed = 11 } in
  let reference =
    Experiments.operator_efficiency ~config (Pipeline.prepare design) ~name:"c17"
  in
  let pool = Pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool)
  @@ fun () ->
  with_store @@ fun s ->
  let ctx = Ctx.make ~pool ~store:s () in
  for round = 1 to 1000 do
    let cold =
      Experiments.operator_efficiency ~config ~ctx (Pipeline.prepare design) ~name:"c17"
    in
    check_bool (Printf.sprintf "round %d equals storeless" round) true (cold = reference)
  done

(* An exception-action chaos arming on the read path must also stay
   contained: the read degrades to a miss instead of crashing. *)
let test_chaos_store_read_exception_contained () =
  with_store @@ fun s ->
  let k = Store.key ~ns:"fsim" [ ("t", "x") ] in
  Store.put s k (Json.Obj [ ("v", Json.Int 1) ]);
  Chaos.arm Chaos.Store_read Chaos.Exception;
  let r = Store.find s k in
  Chaos.disarm_all ();
  check_bool "injected read is a contained miss" true (r = None);
  check_bool "counted corrupt" true (count "corrupt" >= 1)

(* Two maintenance passes racing over the same directory: entries
   vanishing between readdir and stat/unlink are skipped and counted
   (store.raced), never raised — and each entry is removed by exactly
   one of the racers. *)
let test_concurrent_gc_invalidate () =
  with_store @@ fun s ->
  let n = 40 in
  for i = 1 to n do
    Store.put s
      (Store.key ~ns:"fsim" [ ("i", string_of_int i) ])
      (Json.Obj [ ("v", Json.Int i) ])
  done;
  Store.reset_counters ();
  let removed_gc = ref 0 and removed_inv = ref 0 in
  let t1 = Thread.create (fun () -> removed_gc := Store.gc s ~max_age_s:0. ()) () in
  let t2 = Thread.create (fun () -> removed_inv := Store.invalidate s ()) () in
  Thread.join t1;
  Thread.join t2;
  check_int "each entry removed exactly once" n (!removed_gc + !removed_inv);
  check_int "store emptied" 0 (Store.stats s).Store.entries;
  check_int "counters agree with returns" n
    (count "gc_removed" + count "invalidated")

let test_stats_to_json_fields () =
  with_store @@ fun s ->
  Store.put s (Store.key ~ns:"fsim" [ ("a", "1") ]) (Json.Obj []);
  Store.put s (Store.key ~ns:"score" [ ("b", "2") ]) (Json.Obj []);
  let st = Store.stats s in
  match Store.stats_to_json ~dir:(Store.dir s) st with
  | Json.Obj fields ->
    check_bool "dir" true
      (List.assoc_opt "dir" fields = Some (Json.String (Store.dir s)));
    check_bool "entries" true
      (List.assoc_opt "entries" fields = Some (Json.Int st.Store.entries));
    check_bool "bytes" true
      (List.assoc_opt "bytes" fields = Some (Json.Int st.Store.bytes));
    check_bool "stale_tmp" true
      (List.assoc_opt "stale_tmp" fields = Some (Json.Int st.Store.stale_tmp));
    (match List.assoc_opt "namespaces" fields with
     | Some (Json.Obj ns) ->
       Alcotest.(check (list (pair string int)))
         "namespaces mirror the text view" st.Store.namespaces
         (List.map
            (fun (k, v) ->
              match v with
              | Json.Int i -> (k, i)
              | _ -> Alcotest.fail "namespace count not an int")
            ns)
     | _ -> Alcotest.fail "namespaces object missing")
  | _ -> Alcotest.fail "stats_to_json must return an object"

let suite =
  [
    ( "store.kv",
      [
        Alcotest.test_case "roundtrip" `Quick (clean test_roundtrip);
        Alcotest.test_case "key validation" `Quick (clean test_key_validation);
        Alcotest.test_case "format version guard" `Quick (clean test_version_guard);
        Alcotest.test_case "corrupt entry is a miss" `Quick
          (clean test_corrupt_entry_is_miss);
      ] );
    ( "store.fetch",
      [
        Alcotest.test_case "fetch_or_compute memoises" `Quick
          (clean test_fetch_or_compute);
        Alcotest.test_case "decode mismatch recomputes" `Quick
          (clean test_fetch_decode_mismatch);
        Alcotest.test_case "degraded runs are not cached" `Quick
          (clean test_degrade_guard);
        Alcotest.test_case "put contains injected faults" `Quick
          (clean test_put_contained);
      ] );
    ( "store.maintenance",
      [
        Alcotest.test_case "stats, gc and invalidate" `Quick
          (clean test_stats_gc_invalidate);
      ] );
    ( "store.robustness",
      [
        Alcotest.test_case "chaos-corrupt warm --jobs 4 replay" `Quick
          (clean test_chaos_corrupt_warm_replay);
        Alcotest.test_case "injected read exception contained" `Quick
          (clean test_chaos_store_read_exception_contained);
        Alcotest.test_case "concurrent gc and invalidate" `Quick
          (clean test_concurrent_gc_invalidate);
        Alcotest.test_case "stats_to_json mirrors text view" `Quick
          (clean test_stats_to_json_fields);
        Alcotest.test_case "cold 4-domain cells key the store" `Quick
          (clean test_cold_store_cells_hash_race);
      ] );
    ( "store.differential",
      [
        Alcotest.test_case "fault_simulate warm replay" `Quick
          (clean test_fsim_cold_warm);
        Alcotest.test_case "classify_equivalents warm replay" `Quick
          (clean test_classify_cold_warm);
        Alcotest.test_case "operator_efficiency warm replay" `Quick
          (clean test_t1row_cold_warm);
      ] );
  ]
