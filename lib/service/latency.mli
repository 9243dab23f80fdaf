(** Per-op-class tail-latency digests from raw samples.

    Percentiles are exact (interpolated over the sorted raw latencies,
    {!Util.Stats.percentile}) rather than read off the pow-2 histogram
    buckets of {!Obs.Summary} — at service latency scales adjacent
    percentiles often land inside one pow-2 bucket, and a digest where
    p50 = p99 is useless as a regression gate.

    Both service drivers digest through {!of_samples}: each hands it
    one class and one latency per request, in integer nanoseconds, as
    both measure them. Nothing boxes a sample, and every sample is
    sorted once, by {!Util.Stats.radix_sort}. *)

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

val digest : string -> int array -> class_stats
(** [digest cls samples]: one digest of [samples] (ns) labelled [cls];
    all-zero with [requests = 0] when [samples] is empty. [samples] is
    left as it was. *)

val of_samples : cls:int array -> int array -> class_stats list
(** [of_samples ~cls ns]: request [i], of class [cls.(i)] (a
    {!Gen.class_index}), took [ns.(i)] nanoseconds. One digest per
    class with at least one request, in class-index order, after an
    ["all"] digest over every request (always present and first — all
    zero with [requests = 0] when there are no requests, never nan).

    Each sample is sorted once, keyed by its latency with its class in
    the key's two low bits; one pass over the sorted keys yields
    ["all"] and each class's sorted samples. Each mean sums its samples
    in request order. Raises [Invalid_argument] when the two arrays
    differ in length, on a class outside [\[0, Gen.n_classes)], or on a
    latency outside [\[-2{^60}, 2{^60})] ns (36 years either way),
    which the key cannot hold. *)

val all_of : class_stats list -> class_stats
(** The ["all"] digest; raises [Not_found] when absent. *)
