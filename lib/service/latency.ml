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
    let max_ns = sorted.(n - 1) in
    (* With fewer than 1000 samples the 99.9th percentile would be an
       interpolation between the last two order statistics — a value no
       request actually saw. Report the observed max and flag the
       approximation instead of faking precision. *)
    let p999_ns, p999_approx =
      if n < 1000 then (max_ns, true)
      else (Util.Stats.percentile_sorted sorted 0.999, false)
    in
    {
      cls;
      requests = n;
      p50_ns = Util.Stats.percentile_sorted sorted 0.5;
      p99_ns = Util.Stats.percentile_sorted sorted 0.99;
      p999_ns;
      p999_approx;
      mean_ns = mean;
      max_ns;
    }
  end

(* A mean summed in the samples' own order, before any sort moves
   them; 0 for no samples. *)
let mean_of s = if Array.length s = 0 then 0.0 else Util.Stats.mean s

let digest cls samples =
  let sorted = Array.copy samples in
  Util.Stats.sort sorted;
  of_sorted cls sorted ~mean:(mean_of samples)

let of_samples ~cls ns =
  let n = Array.length ns in
  if Array.length cls <> n then
    invalid_arg "Latency.of_samples: one class per sample";
  (* One counting pass sizes each class's array, one more fills it. *)
  let counts = Array.make Gen.n_classes 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) cls;
  let by_class = Array.map Array.create_float counts in
  let fill = Array.make Gen.n_classes 0 in
  for i = 0 to n - 1 do
    let c = cls.(i) in
    by_class.(c).(fill.(c)) <- ns.(i);
    fill.(c) <- fill.(c) + 1
  done;
  let means = Array.map mean_of by_class in
  let all_mean = mean_of ns in
  (* Each class is sorted once, and "all" is the merge of the sorted
     classes rather than a second sort of every sample. *)
  Array.iter Util.Stats.sort by_class;
  let classes =
    List.filter_map
      (fun c ->
        if counts.(c) = 0 then None
        else Some (of_sorted Gen.class_names.(c) by_class.(c) ~mean:means.(c)))
      (List.init Gen.n_classes Fun.id)
  in
  (* Always emit the "all" digest, even over zero samples, so callers
     (and all_of) need no empty-run special case. *)
  of_sorted "all" (Util.Stats.merge by_class) ~mean:all_mean :: classes

let all_of classes = List.find (fun c -> c.cls = "all") classes
