(** Series-parallel cost expressions.

    A [Par.t] describes the fork-join structure and per-node costs of a
    dynamically multithreaded computation without materializing its DAG.
    Batched data structures describe each BOP invocation as a [Par.t];
    the simulator lowers it to a batch DAG ({!Dag.of_par}), and the
    analytic model reads work and span directly.

    Lowering uses binary forking, as the paper assumes: a [Branch] of k
    children becomes a balanced binary tree of unit-cost fork nodes and a
    matching tree of unit-cost join nodes, so a k-way parallel combine
    contributes Θ(k) work and Θ(lg k) span of overhead. [work] and [span]
    here agree exactly with the lowered DAG's work and span. *)

type t =
  | Leaf of int  (** a sequential chain of [c] unit-time nodes, [c >= 1] *)
  | Series of t list  (** sequential composition; list must be nonempty *)
  | Branch of t list  (** parallel composition; list must be nonempty *)

val leaf : int -> t
(** [leaf c] clamps cost to at least 1. *)

val series : t list -> t
val branch : t list -> t

val balanced : leaf_cost:(int -> int) -> int -> t
(** [balanced ~leaf_cost k] is a parallel combine over [k] leaves where
    leaf [i] costs [leaf_cost i] — e.g. parallel-for, reduction trees,
    parallel prefix sums all have this shape. [k >= 1]. *)

val work : t -> int
(** Total node cost after lowering, including fork/join overhead nodes. *)

val span : t -> int
(** Longest path cost after lowering, including fork/join overhead. *)

val leaves : t -> int
(** Number of [Leaf] constructors. *)

val pp : Format.formatter -> t -> unit
