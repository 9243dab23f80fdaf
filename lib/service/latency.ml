type class_stats = {
  cls : string;
  requests : int;
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  p999_approx : bool;
  mean_ns : float;
  max_ns : float;
}

(* The digest of [sorted], ascending, whose mean is [mean]: every
   quantile and the max are read off the one sorted array. *)
let of_sorted cls sorted ~mean =
  let n = Array.length sorted in
  if n = 0 then
    (* An empty class yields a well-defined all-zero digest, never nan
       (Util.Stats.percentile/mean raise on empty input). *)
    {
      cls;
      requests = 0;
      p50_ns = 0.0;
      p99_ns = 0.0;
      p999_ns = 0.0;
      p999_approx = true;
      mean_ns = 0.0;
      max_ns = 0.0;
    }
  else begin
    let max_ns = float_of_int sorted.(n - 1) in
    (* With fewer than 1000 samples the 99.9th percentile would be an
       interpolation between the last two order statistics — a value no
       request actually saw. Report the observed max and flag the
       approximation instead of faking precision. *)
    let p999_ns, p999_approx =
      if n < 1000 then (max_ns, true)
      else (Util.Stats.percentile_sorted_int sorted 0.999, false)
    in
    {
      cls;
      requests = n;
      p50_ns = Util.Stats.percentile_sorted_int sorted 0.5;
      p99_ns = Util.Stats.percentile_sorted_int sorted 0.99;
      p999_ns;
      p999_approx;
      mean_ns = mean;
      max_ns;
    }
  end

(* A mean summed in the samples' own order, before any sort moves
   them, as Util.Stats.mean sums their floats; 0 for no samples. *)
let mean_of s =
  let n = Array.length s in
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. float_of_int s.(i)
    done;
    !acc /. float_of_int n
  end

let digest cls samples =
  let sorted = Array.copy samples in
  Util.Stats.radix_sort sorted;
  of_sorted cls sorted ~mean:(mean_of samples)

(* A sample's class rides in the low bits of its sort key, so one sort
   orders every sample and, within each class, that class's samples. *)
let class_bits = 2
let () = assert (Gen.n_classes <= 1 lsl class_bits)

let of_samples ~cls ns =
  let n = Array.length ns in
  if Array.length cls <> n then
    invalid_arg "Latency.of_samples: one class per sample";
  (* One pass in request order counts each class, sums each mean as
     Util.Stats.mean would sum the class's floats, and builds the
     keys. *)
  let counts = Array.make Gen.n_classes 0 in
  let sums = Array.make Gen.n_classes 0.0 in
  let all_sum = ref 0.0 in
  let keys = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = cls.(i) and x = ns.(i) in
    if c < 0 || c >= Gen.n_classes then
      invalid_arg "Latency.of_samples: class out of range";
    if (x lsl class_bits) asr class_bits <> x then
      invalid_arg "Latency.of_samples: sample out of range";
    counts.(c) <- counts.(c) + 1;
    sums.(c) <- sums.(c) +. float_of_int x;
    all_sum := !all_sum +. float_of_int x;
    keys.(i) <- (x lsl class_bits) lor c
  done;
  Util.Stats.radix_sort keys;
  (* One pass over the sorted keys deals each class its samples, in
     order, and leaves [keys] holding every sample, in order. *)
  let by_class = Array.map (fun k -> Array.make k 0) counts in
  let fill = Array.make Gen.n_classes 0 in
  for j = 0 to n - 1 do
    let k = keys.(j) in
    let c = k land ((1 lsl class_bits) - 1) and x = k asr class_bits in
    by_class.(c).(fill.(c)) <- x;
    fill.(c) <- fill.(c) + 1;
    keys.(j) <- x
  done;
  let mean sum count = if count = 0 then 0.0 else sum /. float_of_int count in
  let classes =
    List.filter_map
      (fun c ->
        if counts.(c) = 0 then None
        else
          Some
            (of_sorted Gen.class_names.(c) by_class.(c)
               ~mean:(mean sums.(c) counts.(c))))
      (List.init Gen.n_classes Fun.id)
  in
  (* Always emit the "all" digest, even over zero samples, so callers
     (and all_of) need no empty-run special case. *)
  of_sorted "all" keys ~mean:(mean !all_sum n) :: classes

let all_of classes = List.find (fun c -> c.cls = "all") classes
