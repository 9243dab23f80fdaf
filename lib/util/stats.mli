(** Summary statistics over float samples, used by experiment reports,
    and the integer sort and quantiles latency digests read. The sums
    and the integer sort read their arrays unboxed; {!percentile} and
    {!summarize} sort a float copy with [Array.sort Float.compare],
    which boxes each element it reads, and are meant for reports
    outside timed regions. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array. *)

val mean : float array -> float
(** Summed left to right from 0.0, as [Array.fold_left ( +. ) 0.0]
    sums, so the result is bit-identical to that fold's. *)

val stddev : float array -> float
val percentile : float array -> float -> float
(** [percentile xs q] for [q] in [0,1], linear interpolation. *)

val percentile_sorted_int : int array -> float -> float
(** [percentile_sorted_int sorted q] is
    [percentile (Array.map float_of_int sorted) q], to the bit, for an
    array already in ascending order, without the conversion, the copy
    and the sort: several quantiles of one sample cost one sort. *)

val radix_sort : int array -> unit
(** Sort in place into ascending order: the array [Array.sort compare]
    gives, every int included. An LSD radix sort on 8-bit digits that
    makes only the passes the input's range needs; it allocates one
    scratch array of the input's length. *)

val geomean : float array -> float
(** Geometric mean; requires all samples positive. *)
