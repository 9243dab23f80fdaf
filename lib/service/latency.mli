(** Per-op-class tail-latency digests from raw samples.

    Percentiles are exact (interpolated over the sorted raw latencies,
    {!Util.Stats.percentile}) rather than read off the pow-2 histogram
    buckets of {!Obs.Summary} — at service latency scales adjacent
    percentiles often land inside one pow-2 bucket, and a digest where
    p50 = p99 is useless as a regression gate. *)

type class_stats = {
  cls : string;  (** a {!Gen.class_name}, or ["all"] *)
  requests : int;
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  p999_approx : bool;
      (** true when [requests < 1000]: the 99.9th percentile of so few
          samples would be interpolation noise, so [p999_ns] reports
          the observed max instead *)
  mean_ns : float;
  max_ns : float;
}

val digest : string -> float array -> class_stats
(** [digest cls samples]: one digest of [samples] (ns) labelled [cls];
    all-zero with [requests = 0] when [samples] is empty. *)

val of_samples : (string * float array) list -> class_stats list
(** One digest per named class with at least one sample, plus an
    ["all"] digest over the concatenation (always present and first in
    the returned list — all-zero with [requests = 0] when there are no
    samples at all, never nan). Sample arrays are latencies in
    nanoseconds. *)

val all_of : class_stats list -> class_stats
(** The ["all"] digest; raises [Not_found] when absent. *)
