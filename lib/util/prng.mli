(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic step of the library draws from an explicit [Prng.t]
    so that experiments are reproducible from a single integer seed. The
    implementation is the splitmix64 generator of Steele, Lea and
    Flood, which has a 64-bit state, passes BigCrush and is trivially
    splittable. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Generators created from the
    same seed produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator starting from the current state
    of [t]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator seeded from it,
    statistically independent of the subsequent output of [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. A power-of-two bound takes a shortcut that masks
    one draw instead of running the rejection loop: a power of two
    divides 2^62, so the loop would accept the first draw and return
    the same value. The stream is the same either way. *)

val bool : t -> bool
(** Uniform boolean. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. Raises [Invalid_argument] on an
    empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] is [k] distinct elements of
    [arr] chosen uniformly, in random order. Raises [Invalid_argument]
    if [k < 0] or [k > Array.length arr]. *)
