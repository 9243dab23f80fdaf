(* Latency vs offered load: re-run the runtime leg at scaled arrival
   rates and find the throughput knee per K.

   Each grid point is one [Rt_driver.run_point] with the scenario's
   rt_rate multiplied by a sweep factor and request tracing on, so
   every point carries an exact per-phase decomposition of its total
   latency ([Obs.Reqtrace.totals]) — past the knee the interesting
   question is not "p99 doubled" but "p99 is now 86% pending-wait",
   and the shares answer it.

   Knee definition: a point *keeps up* when delivered goodput is at
   least [knee_threshold] of the offered rate; the knee is the highest
   offered rate (in the swept grid) that keeps up. Goodput, measured
   on the driver's wall clock over an open-loop schedule, is the
   honest side of the ratio — offered load is fixed by the generator
   before the run, so a system past saturation shows a widening gap
   rather than the closed-loop illusion of "100% of what we asked". *)

type point = {
  shards : int;
  mult : float;  (* rate multiplier applied to the scenario's rt_rate *)
  offered_req_s : float;  (* scheduled requests / duration *)
  pt : Rt_driver.point;  (* goodput, digests, and the request trace *)
  shares : (string * float) list;  (* Obs.Reqtrace.shares of the point *)
}

type knee = {
  k_shards : int;
  knee_req_s : float;  (* 0.0 when no swept point kept up *)
  knee_mult : float;
  k_absent : bool;  (* no swept multiplier kept up at all *)
}

type t = {
  scenario : Scenario.t;
  points : point list;
  knees : knee list;
}

let knee_threshold = 0.9
let default_mults = [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

let scale (sc : Scenario.t) mult =
  { sc with Scenario.rt_rate = sc.Scenario.rt_rate *. mult }

(* Knee extraction is pure over the measured points so the absent-knee
   contract (a K whose every swept multiplier failed to keep up yields
   an explicit [k_absent] knee, never a silent omission) is
   unit-testable without timed runs. *)
let knees_of_points ~shards points =
  List.map
    (fun k ->
      let keeping =
        List.filter
          (fun p ->
            p.shards = k && p.offered_req_s > 0.0
            && p.pt.Rt_driver.goodput /. p.offered_req_s >= knee_threshold)
          points
      in
      let best =
        List.fold_left
          (fun acc p ->
            match acc with
            | Some b when b.offered_req_s >= p.offered_req_s -> acc
            | _ -> Some p)
          None keeping
      in
      match best with
      | Some p ->
          {
            k_shards = k;
            knee_req_s = p.offered_req_s;
            knee_mult = p.mult;
            k_absent = false;
          }
      | None ->
          { k_shards = k; knee_req_s = 0.0; knee_mult = 0.0; k_absent = true })
    shards

let run ?(mults = default_mults) ?shards ?workers ?duration_s
    (sc : Scenario.t) =
  if mults = [] then invalid_arg "Sweep.run: mults must be non-empty";
  let shards =
    match shards with
    | Some ks -> ks
    | None -> (
        (* Default: the scenario's largest K — the knee of the most
           scaled configuration is the headline number. *)
        match List.rev sc.Scenario.rt_shards with
        | k :: _ -> [ k ]
        | [] -> [ 1 ])
  in
  (* A sweep multiplies runs; keep each point short unless the caller
     asks otherwise. *)
  let duration_s =
    match duration_s with
    | Some d -> d
    | None -> Float.min sc.Scenario.duration_s 1.0
  in
  let points =
    List.concat_map
      (fun k ->
        List.map
          (fun mult ->
            let pt =
              Rt_driver.run_point ?workers ~duration_s ~trace:true
                (scale sc mult) ~shards:k
            in
            {
              shards = k;
              mult;
              offered_req_s = float_of_int pt.Rt_driver.requests /. duration_s;
              pt;
              shares = Obs.Reqtrace.(shares (totals pt.Rt_driver.trace));
            })
          mults)
      shards
  in
  let knees = knees_of_points ~shards points in
  { scenario = sc; points; knees }

(* SVC_LOAD rows. Identity fields: exec/scenario/store/p/shards/mult/
   cls. Each grid point emits one "all" row with goodput, the latency
   digest and the phase shares; each K emits one cls="knee" row whose
   knee_req_s metric is the gate handle. *)
let rows t =
  let sc = t.scenario in
  let store =
    let (module S : Store.STORE) = sc.Scenario.store in
    S.name
  in
  let base ~k ~cls rest =
    Obs.Json.Obj
      ([
         ("exec", Obs.Json.Str "runtime");
         ("scenario", Obs.Json.Str sc.Scenario.name);
         ("store", Obs.Json.Str store);
         ("shards", Obs.Json.Int k);
         ("cls", Obs.Json.Str cls);
       ]
      @ rest)
  in
  let point_rows =
    List.map
      (fun p ->
        let all = Latency.all_of p.pt.Rt_driver.classes in
        base ~k:p.shards ~cls:"all"
          ([
             ("mult", Obs.Json.Float p.mult);
             ("p", Obs.Json.Int p.pt.Rt_driver.workers);
             ("offered_req_s", Obs.Json.Float p.offered_req_s);
             ("goodput", Obs.Json.Float p.pt.Rt_driver.goodput);
             ("requests", Obs.Json.Int p.pt.Rt_driver.requests);
             ("p50_ns", Obs.Json.Float all.Latency.p50_ns);
             ("p99_ns", Obs.Json.Float all.Latency.p99_ns);
             ("p999_ns", Obs.Json.Float all.Latency.p999_ns);
             ("p999_approx", Obs.Json.Bool all.Latency.p999_approx);
           ]
          @ List.map
              (fun (name, v) -> ("share_" ^ name, Obs.Json.Float v))
              p.shares))
      t.points
  in
  let knee_rows =
    List.map
      (fun kn ->
        base ~k:kn.k_shards ~cls:"knee"
          [
            ("knee_req_s", Obs.Json.Float kn.knee_req_s);
            ("knee_mult", Obs.Json.Float kn.knee_mult);
            ("knee_absent", Obs.Json.Bool kn.k_absent);
          ])
      t.knees
  in
  point_rows @ knee_rows
