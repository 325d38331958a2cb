(** Mutant-sampling strategies — the paper's section 4.

    Both strategies extract exactly the same number of mutants
    ([round (rate · M)]):

    - {!Random_uniform} is the classical 10 % sampling of Offutt &
      Untch: a uniform sample of the whole population;
    - {!Operator_weighted} allocates the budget across operators in
      proportion to weight(op) · population(op), where the weight is
      the operator's stuck-at efficiency (the paper uses the NLFCE from
      its Table 1 study), then samples uniformly inside each operator
      class. Quotas are capped by class population and the excess is
      redistributed, so the total is always met when the population
      allows. *)

type t =
  | Random_uniform
  | Operator_weighted of (Mutsamp_mutation.Operator.t * float) list
      (** weights may be any non-negative numbers; missing operators get
          weight 0 *)

val sample_size : rate:float -> int -> int
(** [round (rate · total)], at least 1 when the population is
    non-empty. Raises [Invalid_argument] unless [0 < rate <= 1]. *)

val sample :
  Mutsamp_util.Prng.t ->
  t ->
  Mutsamp_mutation.Mutant.t list ->
  rate:float ->
  Mutsamp_mutation.Mutant.t list
(** Select [sample_size ~rate M] mutants. The result preserves the
    original relative order. *)

val quotas :
  t -> (Mutsamp_mutation.Operator.t * int) list -> total:int ->
  (Mutsamp_mutation.Operator.t * int) list
(** The per-operator allocation the weighted strategy uses (exposed for
    tests and reports): sums to [total], each quota within the class
    population. For {!Random_uniform}, proportional to population. *)
