(** Simulator-facing cost models of batched data structures.

    The simulator schedules a core DAG whose [Ds] nodes carry operation
    indices. When BATCHER launches a batch, it asks the data structure's
    model for the batch DAG shape: [batch_cost] receives the indices of
    the data-structure nodes in the batch, applies the batch's effect on
    the structure's (abstract, mutable) state — e.g. growing a skip list —
    and returns the {!Dag.Par.t} cost expression of the BOP, from which
    the paper's batch work [w_A] and batch span [s_A] follow.

    [seq_cost] supports the sequential and lock-serialized baselines: the
    cost of executing one operation node alone against the current state
    (also applying its state effect).

    A model instance is mutable; call [reset] before every simulation run
    so repeated runs are identical. *)

type t = {
  name : string;
  reset : unit -> unit;
  batch_cost : int array -> Par.t;
  seq_cost : int -> int;
}

val log2_cost : int -> int
(** [log2_cost n] = ceil(log2 (max 2 n)) — the canonical "height of a
    search structure of n elements" cost. *)
