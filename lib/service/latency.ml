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

let digest cls samples =
  let n = Array.length samples in
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
    (* One sort serves every quantile and the max. *)
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
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
      mean_ns = Util.Stats.mean samples;
      max_ns;
    }
  end

let of_samples named =
  let total = List.fold_left (fun a (_, s) -> a + Array.length s) 0 named in
  let all = Array.make (max 1 total) 0.0 in
  let pos = ref 0 in
  List.iter
    (fun (_, s) ->
      Array.blit s 0 all !pos (Array.length s);
      pos := !pos + Array.length s)
    named;
  let classes =
    List.filter_map
      (fun (name, s) ->
        if Array.length s = 0 then None else Some (digest name s))
      named
  in
  (* Always emit the "all" digest, even over zero samples, so callers
     (and all_of) need no empty-run special case. *)
  digest "all" (Array.sub all 0 total) :: classes

let all_of classes = List.find (fun c -> c.cls = "all") classes
