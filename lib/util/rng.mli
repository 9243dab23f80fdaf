(** Deterministic pseudo-random number generation.

    Simulations must be reproducible across runs and platforms, so we use
    our own SplitMix64 (for seeding) and Xoshiro256++ (for streams) rather
    than [Stdlib.Random]. Each worker in a simulation owns an independent
    stream derived from the run seed and the worker index. *)

type t
(** Mutable generator state (one Xoshiro256++ stream). *)

val create : seed:int -> t
(** [create ~seed] builds a stream; equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives a new independent stream from [t], advancing [t]. *)

val stream : seed:int -> index:int -> t
(** [stream ~seed ~index] is the [index]-th derived stream of [seed];
    convenience for per-worker streams. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val skip : t -> int -> unit
(** [skip t n] advances [t] past [n] outputs, as [n] calls of {!next64}
    would, allocating nothing. Every bounded draw ({!int}, {!bool},
    {!float}) takes exactly one output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound):
    [bound *. (float_of_int (bits53 t) /. 0x1p53)]. *)

val bits53 : t -> int
(** The top 53 bits of the next output, uniform in [\[0, 2{^53})].
    A caller in another module that builds its float from this int
    keeps the float unboxed; a float returned by {!float} is boxed. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** Fisher-Yates shuffle in place. *)
