(** CNF formula construction.

    Variables are positive integers (1-based); a literal is a non-zero
    integer, negative for a negated variable. *)

type lit = int
type clause = lit array

type t

val create : unit -> t
val new_var : t -> lit
(** A fresh variable, returned as its positive literal. *)

val num_vars : t -> int
val num_clauses : t -> int

val add_clause : t -> lit list -> unit
(** Add a clause. Raises [Invalid_argument] on the empty clause, a zero
    literal or a literal naming an unallocated variable. Tautological
    clauses (containing both [l] and [-l]) are dropped; duplicate
    literals are removed. *)

val clauses : t -> clause array
(** Snapshot of all clauses. *)

val neg : lit -> lit
