(** Work-stealing deque for the simulator.

    The owner pushes and pops at the bottom; thieves steal from the top.
    The simulator is single-threaded, so this is a plain growable ring
    buffer of ints with a power-of-two capacity — the lock-free version
    for the real runtime lives in [Runtime.Wsdeque]. Elements are
    non-negative: an empty deque's pop and steal return [-1]. *)

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int

val push_bottom : t -> int -> unit
(** [push_bottom t x] requires [x >= 0]. *)

val pop_bottom : t -> int
(** The newest element, or [-1] when empty. *)

val steal_top : t -> int
(** The oldest element, or [-1] when empty. *)
