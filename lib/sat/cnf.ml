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

let add_clause t lits =
  if lits = [] then invalid_arg "Cnf.add_clause: empty clause";
  List.iter
    (fun l ->
      if l = 0 then invalid_arg "Cnf.add_clause: zero literal";
      if abs l > t.vars then invalid_arg "Cnf.add_clause: unallocated variable")
    lits;
  let sorted = List.sort_uniq Stdlib.compare lits in
  let tautology = List.exists (fun l -> List.mem (-l) sorted) sorted in
  if not tautology then begin
    t.cls <- Array.of_list sorted :: t.cls;
    t.count <- t.count + 1
  end

let clauses t = Array.of_list (List.rev t.cls)
