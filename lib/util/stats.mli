(** Summary statistics over float samples, used by experiment reports. *)

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
val stddev : float array -> float
val percentile : float array -> float -> float
(** [percentile xs q] for [q] in [0,1], linear interpolation. *)

val percentile_sorted : float array -> float -> float
(** [percentile_sorted sorted q] is [percentile sorted q] for an array
    already in ascending order, without the copy and sort: several
    quantiles of one sample cost one sort. *)

val geomean : float array -> float
(** Geometric mean; requires all samples positive. *)
