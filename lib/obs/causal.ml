(* The generic half of the causal what-if profiler: pure delta /
   ranking / divergence / reporting logic over abstract per-run
   measures. The concrete legs live in Svc.Causal (lib/obs cannot see
   sim or the service drivers): the sim leg re-runs Sim.Openloop under
   scaled Sim.Costs, the runtime leg re-runs Rt_driver under
   Batcher_rt delay injection; both reduce each run to a [measure] and
   hand the grid here. *)

type measure = {
  goodput : float;
  mean_ns : float;
  p99_ns : float;
  max_ns : float;
  bound_ns : float;
  per_class : (string * float) list;
}

type cell = {
  phase : string;
  family : string;
  speedup : float;
  m : measure;
  d_mean : float;
  d_p99 : float;
  d_goodput : float;
  d_bound : float;
  share_predicted : float;
  divergence : float;
  d_class : (string * float) list;
}

type profile = {
  exec : string;
  label : string;
  baseline : measure;
  shares : (string * float) list;
  cells : cell list;
  winner_measured : string option;
  winner_bound : string option;
  agree : bool option;
  divergent : (string * float) list;
}

let divergence_threshold = 0.05

(* Fractional improvement of a lower-is-better metric: +0.5 = the
   metric halved. NaN when the baseline carries no signal. *)
let improve ~baseline v =
  if Float.is_nan baseline || Float.is_nan v || baseline <= 0.0 then nan
  else (baseline -. v) /. baseline

let improve_up ~baseline v =
  if Float.is_nan baseline || Float.is_nan v || baseline <= 0.0 then nan
  else (v -. baseline) /. baseline

let cell ~baseline ~shares ~phase ~family ~share_of ~speedup m =
  if speedup < 1.0 then invalid_arg "Causal.cell: speedup >= 1";
  let share_predicted =
    match share_of with
    | None -> nan
    | Some name -> (
        match List.assoc_opt name shares with
        | None -> nan
        | Some s -> s *. (1.0 -. (1.0 /. speedup)))
  in
  let d_mean = improve ~baseline:baseline.mean_ns m.mean_ns in
  {
    phase;
    family;
    speedup;
    m;
    d_mean;
    d_p99 = improve ~baseline:baseline.p99_ns m.p99_ns;
    d_goodput = improve_up ~baseline:baseline.goodput m.goodput;
    d_bound = improve ~baseline:baseline.bound_ns m.bound_ns;
    share_predicted;
    divergence =
      (if Float.is_nan share_predicted then nan
       else d_mean -. share_predicted);
    d_class =
      List.filter_map
        (fun (cls, b) ->
          match List.assoc_opt cls m.per_class with
          | Some v -> Some (cls, improve ~baseline:b v)
          | None -> None)
        baseline.per_class;
  }

(* The headline comparison runs at each phase's deepest swept speedup:
   that is where a phase's causal effect (and any divergence from its
   share) is largest and least noise-prone. *)
let at_max_speedup cells =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match Hashtbl.find_opt tbl c.phase with
      | Some best when best.speedup >= c.speedup -> ()
      | _ -> Hashtbl.replace tbl c.phase c)
    cells;
  List.filter_map
    (fun ph -> Hashtbl.find_opt tbl ph)
    (List.sort_uniq compare (List.map (fun c -> c.phase) cells))

let winner_by f cells =
  List.fold_left
    (fun acc c ->
      let v = f c in
      if Float.is_nan v then acc
      else
        match acc with
        | Some (_, best) when best >= v -> acc
        | _ -> Some (c.phase, v))
    None cells
  |> Option.map fst

let profile ~exec ~label ~baseline ~shares cells =
  let head = at_max_speedup cells in
  let winner_measured = winner_by (fun c -> c.d_mean) head in
  let winner_bound = winner_by (fun c -> c.d_bound) head in
  let agree =
    match (winner_measured, winner_bound) with
    | Some a, Some b -> Some (a = b)
    | _ -> None
  in
  let divergent =
    List.filter_map
      (fun c ->
        if
          (not (Float.is_nan c.divergence))
          && Float.abs c.divergence > divergence_threshold
        then Some (c.phase, c.divergence)
        else None)
      head
  in
  {
    exec;
    label;
    baseline;
    shares;
    cells;
    winner_measured;
    winner_bound;
    agree;
    divergent;
  }

(* ---- human-readable table ---- *)

let pct f = if Float.is_nan f then "    -  " else Printf.sprintf "%+6.1f%%" (100.0 *. f)

let render t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "[causal] %s leg: %s" t.exec t.label;
  line
    "  baseline: goodput %.0f req/s  mean %.1fus  p99 %.1fus  max %.1fus%s"
    t.baseline.goodput (t.baseline.mean_ns /. 1e3)
    (t.baseline.p99_ns /. 1e3) (t.baseline.max_ns /. 1e3)
    (if Float.is_nan t.baseline.bound_ns then ""
     else Printf.sprintf "  thm1-budget %.1fus" (t.baseline.bound_ns /. 1e3));
  line "  shares: %s"
    (String.concat "  "
       (List.map
          (fun (n, v) -> Printf.sprintf "%s %.1f%%" n (100.0 *. v))
          t.shares));
  line "  %-12s %5s %8s %8s %8s %8s %9s %9s" "phase" "f" "dMean"
    "dP99" "dGoodpt" "dBound" "sharePred" "diverge";
  List.iter
    (fun c ->
      line "  %-12s %4gx %s  %s  %s  %s   %s   %s%s" c.phase c.speedup
        (pct c.d_mean) (pct c.d_p99) (pct c.d_goodput) (pct c.d_bound)
        (pct c.share_predicted) (pct c.divergence)
        (if
           (not (Float.is_nan c.divergence))
           && Float.abs c.divergence > divergence_threshold
         then "  DIVERGES"
         else ""))
    t.cells;
  (* Ranked causal profile per op class, at each phase's deepest
     speedup: the order optimization effort should follow. *)
  let head = at_max_speedup t.cells in
  let classes = List.map fst t.baseline.per_class in
  List.iter
    (fun cls ->
      let ranked =
        List.filter_map
          (fun c ->
            match List.assoc_opt cls c.d_class with
            | Some d when not (Float.is_nan d) -> Some (c.phase, d)
            | _ -> None)
          head
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      if ranked <> [] then
        line "  rank %-7s %s" cls
          (String.concat " > "
             (List.map
                (fun (ph, d) -> Printf.sprintf "%s(%+.0f%%)" ph (100.0 *. d))
                ranked)))
    classes;
  (match (t.winner_measured, t.winner_bound) with
  | Some m, Some bd ->
      line "  causal winner: %s; Theorem-1 bound winner: %s -- %s" m bd
        (if m = bd then "AGREE" else "DISAGREE")
  | Some m, None -> line "  causal winner: %s (bound not evaluated)" m
  | None, _ -> line "  causal winner: none (no cell improved the mean)");
  (match t.divergent with
  | [] -> line "  shares-vs-sensitivity: no phase diverges beyond %.0f%%"
            (100.0 *. divergence_threshold)
  | l ->
      line "  shares != sensitivity for: %s"
        (String.concat ", "
           (List.map
              (fun (ph, d) -> Printf.sprintf "%s (%+.0f%%)" ph (100.0 *. d))
              l)));
  Buffer.contents b
