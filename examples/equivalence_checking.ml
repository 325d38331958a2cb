(* Equivalent-mutant identification, two ways:

     dune exec examples/equivalence_checking.exe [circuit]

   Mutation scores divide by M - E, so E (the equivalent mutants) must
   be identified. This example classifies a circuit's surviving mutants
   with the exact engines — SAT miter over the synthesised netlists for
   combinational designs, product-machine BFS for sequential ones — and
   prints each equivalent mutant with its description. *)

module Registry = Mutsamp_circuits.Registry
module Mutant = Mutsamp_mutation.Mutant
module Equivalence = Mutsamp_mutation.Equivalence
module Kill = Mutsamp_mutation.Kill
module Stimuli = Mutsamp_hdl.Stimuli
module Prng = Mutsamp_util.Prng
module Pipeline = Mutsamp_core.Pipeline

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "b02" in
  let entry =
    match Registry.find name with
    | Some e -> e
    | None ->
      Printf.eprintf "unknown circuit %s\n" name;
      exit 1
  in
  let pipeline = Pipeline.prepare (entry.Registry.design ()) in
  let mutants = Array.of_list pipeline.Pipeline.mutants in
  Printf.printf "%s: %d mutants\n" entry.Registry.name (Array.length mutants);

  (* Cheap screen first: most mutants die under a short random burst. *)
  let runner = Kill.make pipeline.Pipeline.design pipeline.Pipeline.mutants in
  let prng = Prng.create 11 in
  let screen =
    List.init 32 (fun _ -> Stimuli.random_sequence prng pipeline.Pipeline.design 16)
  in
  let flags = Kill.killed_set runner screen in
  let survivors =
    List.filter (fun i -> not flags.(i)) (List.init (Array.length mutants) Fun.id)
  in
  Printf.printf "random screen killed %d; %d survivors go to the exact checker\n\n"
    (Array.length mutants - List.length survivors)
    (List.length survivors);

  (* Exact classification of the survivors. *)
  let equivalents = Pipeline.classify_equivalents ~screen:512 ~seed:11 pipeline in
  Printf.printf "%d mutants are provably equivalent:\n" (List.length equivalents);
  List.iter
    (fun i -> Printf.printf "  %s\n" (Mutant.to_string mutants.(i)))
    equivalents;

  (* For a sequential design, show one shortest distinguishing sequence
     for a survivor that is NOT equivalent. *)
  if pipeline.Pipeline.sequential then begin
    let killable =
      List.filter (fun i -> not (List.mem i equivalents)) survivors
    in
    match killable with
    | [] -> print_endline "\n(no non-equivalent survivors to attack)"
    | i :: _ ->
      let m = mutants.(i) in
      let oracle = Equivalence.make runner in
      (match Equivalence.decide oracle m with
       | Ok (Equivalence.Distinguished seq) ->
         Printf.printf
           "\nshortest distinguishing sequence for %s: %d cycles\n"
           (Mutant.to_string m) (List.length seq)
       | Ok (Equivalence.Equivalent | Equivalence.Unknown) | Error _ -> ())
  end
