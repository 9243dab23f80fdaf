(* bench/ledger: the repository's benchmark. Four workloads measured end
   to end (untraced), a per-layer suite of unit costs plus traced
   open-loop runs, the reconciliation of traced phases against unit
   costs, and a comparison of two result files.

     dune exec bench/ledger/ledger.exe -- [--workload NAME|all] [--seed N]
       [--seconds S] [--trace 0|1] [--quick] [--out PATH]
     dune exec bench/ledger/ledger.exe -- --compare OLD.json NEW.json

   --trace 0 runs only the end-to-end workloads, --trace 1 only the
   per-layer suite; without it both run. Every metric is printed with
   its unit, median, quartiles and rep count; the last line of standard
   output is one JSON object {correct, attempted, failed, metrics}. The
   exit code is 1 when a correctness check fails. See README.md. *)

open Obs.Json

let json_metric (m : Rules.metric) =
  let q1, q3 = Rules.quartiles m.values in
  Obj
    [
      ("name", Str m.name);
      ("unit", Str m.unit_);
      ("better", Str (Rules.better_name m.better));
      ("bound", match m.bound with Some b -> Float b | None -> Null);
      ("median", Float (Rules.median m.values));
      ("q1", Float q1);
      ("q3", Float q3);
      ("reps", Int (List.length m.values));
      ("values", List (List.map (fun v -> Float v) m.values));
    ]

let print_metrics metrics =
  Printf.printf "  %-36s %-12s %14s %14s %14s %5s %6s\n" "metric" "unit" "median"
    "q1" "q3" "reps" "bound";
  List.iter
    (fun (m : Rules.metric) ->
      let q1, q3 = Rules.quartiles m.values in
      Printf.printf "  %-36s %-12s %14.4f %14.4f %14.4f %5d %6s\n" m.name m.unit_
        (Rules.median m.values) q1 q3 (List.length m.values)
        (match m.bound with Some b -> Printf.sprintf "%.2f" b | None -> "-"))
    metrics

let print_errors errors =
  if errors = [] then print_endline "  checks: all passed"
  else List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) errors

let print_reconciliation recon =
  List.iter
    (fun (w, rows, residual) ->
      Printf.printf "\n== reconciliation: %s (traced, fixed rate) ==\n" w;
      Printf.printf "  %-8s %12s   %-40s %12s %10s\n" "phase" "measured_us"
        "unit cost" "explained_us" "residual";
      List.iter
        (fun (r : Layers.row) ->
          Printf.printf "  %-8s %12.3f   %-40s %12.3f %9.1f%%\n" r.phase
            r.measured_us r.unit_name r.explained_us
            (100.0 *. (r.measured_us -. r.explained_us) /. r.measured_us))
        rows;
      Printf.printf "  total residual %.1f%% (target: within ~15%%)\n" residual)
    recon

(* The host, for result files only: reading /proc is skipped unless a
   file is being written. *)
let host () =
  let cpu =
    try
      In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> "unknown"
            | Some l -> (
                match String.split_on_char ':' l with
                | k :: v :: _ when String.trim k = "model name" -> String.trim v
                | _ -> find ())
          in
          find ())
    with Sys_error _ -> "unknown"
  in
  Obj
    [
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("cpu", Str cpu);
      ("ocaml", Str Sys.ocaml_version);
    ]

let run ~names ~seed ~seconds ~trace ~quick ~out =
  let z = if quick then Workloads.quick else Workloads.full ~seconds in
  let e2e =
    if trace = Some 1 then []
    else
      List.map
        (fun name ->
          let f = List.assoc name Workloads.all in
          Printf.printf "== %s (seed %d) ==\n%!" name seed;
          let o : Workloads.outcome = f z ~seed in
          List.iter (Printf.printf "  %s\n") o.notes;
          print_metrics o.metrics;
          print_errors o.errors;
          print_newline ();
          (name, o))
        names
  in
  let suite =
    if trace = Some 0 then None
    else begin
      Printf.printf "== per-layer suite (seed %d) ==\n%!" seed;
      let s = Layers.run z ~seed in
      print_metrics s.metrics;
      print_errors s.errors;
      print_reconciliation s.reconciliation;
      print_newline ();
      Some s
    end
  in
  let errors =
    List.concat_map (fun (_, (o : Workloads.outcome)) -> o.errors) e2e
    @ (match suite with Some s -> s.errors | None -> [])
  in
  let attempted =
    List.fold_left (fun acc (_, (o : Workloads.outcome)) -> acc + o.attempted) 0 e2e
    + match suite with Some s -> s.attempted | None -> 0
  and failed =
    List.fold_left (fun acc (_, (o : Workloads.outcome)) -> acc + o.failed) 0 e2e
    + match suite with Some s -> s.failed | None -> 0
  in
  Option.iter
    (fun path ->
      Batcher_core.Report_json.write_file ~path
        (Obj
           [
             ("seed", Int seed);
             ("seconds", Float z.seconds);
             ("quick", Bool quick);
             ("host", host ());
             ( "workloads",
               List
                 (List.map
                    (fun (name, (o : Workloads.outcome)) ->
                      Obj
                        [
                          ("name", Str name);
                          ("attempted", Int o.attempted);
                          ("failed", Int o.failed);
                          ("errors", List (List.map (fun e -> Str e) o.errors));
                          ("metrics", List (List.map json_metric o.metrics));
                        ])
                    e2e) );
             ( "layers",
               match suite with
               | Some s -> List (List.map json_metric s.metrics)
               | None -> List [] );
           ]);
      Printf.printf "[ledger] wrote %s\n" path)
    out;
  (* The last line: one workload's gated end-to-end metrics under their
     own names; with several workloads, prefixed by the workload. *)
  let value (m : Rules.metric) =
    Obj [ ("value", Float (Rules.median m.values)); ("unit", Str m.unit_) ]
  in
  let single = List.length e2e = 1 in
  let metrics =
    List.concat_map
      (fun (name, (o : Workloads.outcome)) ->
        List.filter_map
          (fun (m : Rules.metric) ->
            if m.bound = None then None
            else Some ((if single then m.name else name ^ "/" ^ m.name), value m))
          o.metrics)
      e2e
    @ match suite with
      | Some s -> List.map (fun (m : Rules.metric) -> (m.name, value m)) s.metrics
      | None -> []
  in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (errors = []));
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("metrics", Obj metrics);
          ]));
  if errors = [] then 0 else 1

(* ---------- --compare ---------- *)

let read_json path =
  match parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* A result file is one set of runs; a baseline holds several under
   "sets". *)
let sets_of j =
  match Option.bind (member "sets" j) to_list_opt with Some l -> l | None -> [ j ]

let str j k = match member k j with Some (Str s) -> s | _ -> ""
let list j k = Option.value ~default:[] (Option.bind (member k j) to_list_opt)

(* ((workload, metric), (better, bound, values)) for every metric with a
   bound, in file order, values pooled across sets. *)
let e2e_rows sets =
  let rows =
    List.concat_map
      (fun set ->
        List.concat_map
          (fun w ->
            List.filter_map
              (fun m ->
                match
                  ( Rules.better_of_string (str m "better"),
                    Option.bind (member "bound" m) to_float_opt )
                with
                | Some better, Some bound ->
                    Some
                      ( (str w "name", str m "name"),
                        (better, bound, List.filter_map to_float_opt (list m "values")) )
                | _ -> None)
              (list w "metrics"))
          (list set "workloads"))
      sets
  in
  let keys =
    List.fold_left (fun acc (k, _) -> if List.mem k acc then acc else k :: acc) [] rows
  in
  List.rev_map
    (fun k ->
      let mine = List.filter (fun (k', _) -> k' = k) rows in
      let better, bound, _ = snd (List.hd mine) in
      (k, (better, bound, List.concat_map (fun (_, (_, _, v)) -> v) mine)))
    keys

let compare_files paths =
  let old_sets, new_sets =
    match paths with
    | [ a; b ] -> (sets_of (read_json a), sets_of (read_json b))
    | [ a ] -> (
        match sets_of (read_json a) with
        | first :: _ :: _ as sets -> ([ first ], [ List.hd (List.rev sets) ])
        | _ -> failwith "--compare with one file needs a baseline holding two sets")
    | _ -> failwith "--compare takes OLD.json NEW.json"
  in
  let old_rows = e2e_rows old_sets and new_rows = e2e_rows new_sets in
  Printf.printf "%-16s %-18s %14s %14s %8s %6s  %s\n" "workload" "metric"
    "old median" "new median" "change" "bound" "verdict";
  let verdicts =
    List.filter_map
      (fun (((w, name) as key), (better, bound, old_)) ->
        match List.assoc_opt key new_rows with
        | None ->
            Printf.printf "%-16s %-18s missing from the new file\n" w name;
            None
        | Some (_, _, new_) ->
            let v = Rules.verdict ~better ~bound ~old_ ~new_ in
            let mo = Rules.median old_ and mn = Rules.median new_ in
            Printf.printf "%-16s %-18s %14.4f %14.4f %+7.2f%% %6.2f  %s\n" w name mo
              mn (100.0 *. (mn -. mo) /. mo) bound (Rules.verdict_name v);
            Some v)
      old_rows
  in
  let count v = List.length (List.filter (( = ) v) verdicts) in
  Printf.printf "better %d, same %d, worse %d, unresolved %d\n"
    (count Rules.Better) (count Rules.Same) (count Rules.Worse)
    (count Rules.Unresolved);
  if count Rules.Worse > 0 then 1 else 0

(* ---------- command line ---------- *)

open Cmdliner

let workload =
  let names = "all" :: List.map fst Workloads.all in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) "all"
    & info [ "workload" ] ~docv:"NAME"
        ~doc:("One of " ^ String.concat ", " names ^ "."))

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed of every input.")

let seconds =
  Arg.(
    value & opt float 25.0
    & info [ "seconds" ] ~doc:"Wall budget of one workload's measured loop.")

let trace =
  Arg.(
    value
    & opt (some (enum [ ("0", 0); ("1", 1) ])) None
    & info [ "trace" ]
        ~doc:"0: end-to-end workloads only; 1: per-layer suite only.")

let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Small sizes (smoke run).")

let out =
  Arg.(value & opt (some string) None & info [ "out" ] ~doc:"Write results as JSON.")

let compare =
  Arg.(value & flag & info [ "compare" ] ~doc:"Compare two result files.")

let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE")

let main workload seed seconds trace quick out compare files =
  if compare then compare_files files
  else
    let names =
      if workload = "all" then List.map fst Workloads.all else [ workload ]
    in
    run ~names ~seed ~seconds ~trace ~quick ~out

let () =
  let term =
    Term.(const main $ workload $ seed $ seconds $ trace $ quick $ out $ compare $ files)
  in
  exit (Cmd.eval' (Cmd.v (Cmd.info "ledger" ~doc:"The repository's benchmark.") term))
