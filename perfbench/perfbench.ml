(* Real-clock benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1

   Runs workload W, checks every answer, and prints one JSON result line
   last on stdout: the end-to-end metrics (--trace 0) or the per-layer
   metrics of a traced run (--trace 1).  Progress goes to stderr. *)

open Perfbench_core

(* Metric names and units come from BENCHMARK.json at the repo root:
   [end_to_end] for untraced runs, [per_layer] for traced ones. *)
let declared key =
  let module J = Telemetry.Export in
  let ic = open_in_bin "BENCHMARK.json" in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  match J.member key (J.parse text) with
  | Some (J.Arr l) ->
      List.filter_map
        (fun m ->
          match (J.member "name" m, J.member "unit" m) with
          | Some (J.Str n), Some (J.Str u) -> Some (n, u)
          | _ -> None)
        l
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

(* The parts a run is made of.  A workload runs its own part at full size;
   the other part's metrics come from a shorter fixed probe session, so
   every run reports every end-to-end metric.  The serve part runs only
   in traced runs (README.md says why). *)
type part = Scale | Scale_probe | Figures | Figures_probe

let workloads = [ ("scale", (Scale, Figures_probe)); ("figures", (Figures, Scale_probe)) ]

(* The figures probe sweeps m only (Figs. 2 and 4). *)
let probe_figs name = name = "fig2" || name = "fig4"

(* Probes draw fixed inputs, so their figures vary with the machine
   only, not with the workload's seed. *)
let probe_seed = 1

let run_part p ~seed ~seconds =
  (* start each part on a compacted heap: the scale part leaves hundreds
     of MiB behind *)
  Gc.compact ();
  match p with
  | Scale -> Scaling.run Scaling.full ~seed ~seconds
  | Scale_probe -> Scaling.run Scaling.probe ~seed:probe_seed ~seconds:0.
  | Figures -> Sweeps.run ~seed ~seconds ()
  | Figures_probe ->
      Sweeps.run ~figs:probe_figs ~min_passes:3 ~seed:probe_seed ~seconds:0. ()

(* The end-to-end figure the trace overhead is measured on. *)
let headline p (metrics : Out.metric list) =
  match p with
  | Figures | Figures_probe -> 1. /. Out.value metrics "replicates_per_s"
  | Scale | Scale_probe -> Out.value metrics "graph_s" +. Out.value metrics "solve_s"

let no_ops = { Out.metrics = []; attempted = 0; failed = 0; problems = [] }

(* A part under the span recorder: its outcome, per-layer metrics, and
   its headline figure. *)
let layers_of p tr ~seed =
  Gc.compact ();
  match p with
  | Scale | Scale_probe ->
      let cfg = if p = Scale then Scaling.full else Scaling.probe in
      let layers = Scaling.layers cfg tr ~seed in
      (no_ops, layers, Out.value layers "kernel.knn_approx_s" +. Out.value layers "gssl.solve_mg_s")
  | Figures | Figures_probe ->
      let figs = if p = Figures then None else Some probe_figs in
      let layers, pass = Sweeps.layers ?figs tr ~seed in
      ( { no_ops with attempted = pass.Sweeps.replicates; failed = pass.Sweeps.failed;
          problems = pass.Sweeps.problems },
        layers,
        pass.Sweeps.wall_s /. float_of_int pass.Sweeps.replicates )

let select declared (metrics : Out.metric list) =
  List.map
    (fun (name, unit_) ->
      match Out.find metrics name with
      | Some x when x.Out.unit_ <> unit_ ->
          failwith (Printf.sprintf "metric %s measured in %s, declared in %s" name x.Out.unit_ unit_)
      | Some x when Float.is_finite x.Out.value -> x
      | Some _ -> failwith (Printf.sprintf "metric %s is not finite" name)
      | None -> failwith (Printf.sprintf "metric %s was not measured" name))
    declared

let finish ~names parts metrics =
  let attempted = List.fold_left (fun a p -> a + p.Out.attempted) 0 parts in
  let failed = min attempted (List.fold_left (fun a p -> a + p.Out.failed) 0 parts) in
  let problems = List.concat_map (fun p -> p.Out.problems) parts in
  List.iter (fun s -> prerr_endline ("FAILED CHECK: " ^ s)) problems;
  let metrics = select names metrics in
  print_endline
    (Out.result_line ~correct:(failed = 0 && problems = []) ~attempted ~failed metrics)

let spans_dir = ".perfbench"

let run_untraced (own, probe) ~seed ~seconds =
  let first = run_part own ~seed ~seconds in
  let second = run_part probe ~seed ~seconds:0. in
  finish ~names:(declared "end_to_end") [ first; second ]
    (Out.merge [ first.Out.metrics; second.Out.metrics ])

let run_traced workload (own, probe) ~seed ~seconds =
  let untraced = run_part own ~seed ~seconds in
  Telemetry.Registry.enable ();
  Telemetry.Registry.reset ();
  let tr = Tracer.create () in
  let e2e, layers, traced = layers_of own tr ~seed in
  let base = headline own untraced.Out.metrics in
  let overhead = [ Out.m "bench.trace_overhead_frac" "frac" ((traced -. base) /. base) ] in
  let probe_part, probe_layers, _ = layers_of probe tr ~seed:probe_seed in
  Gc.compact ();
  let serve_part, serve_layers = Serving.run tr ~seed in
  if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
  let path = Filename.concat spans_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed) in
  Tracer.write tr path;
  List.iter
    (fun (name, s) ->
      prerr_endline
        (Printf.sprintf "  span %-32s %7d  total %11.3f ms  self %11.3f ms" name
           s.Tracer.count (1e3 *. s.Tracer.total_s) (1e3 *. s.Tracer.self_s)))
    (Tracer.summarize (Tracer.spans tr));
  prerr_endline ("  spans written to " ^ path);
  finish ~names:(declared "per_layer")
    [ untraced; e2e; probe_part; serve_part ]
    (Out.merge [ layers @ overhead; probe_layers; serve_layers ])

let usage () =
  prerr_endline
    "usage: perfbench --workload (scale|figures) --seed N \
     --seconds S --trace 0|1";
  exit 2

(* [Dataset.Synthetic] draws from a lazily built distribution, and forcing
   it from two pool domains at once raises [CamlinternalLazy.Undefined];
   build it before any sweep goes parallel. *)
let force_lazy_inputs () = ignore (Dataset.Synthetic.sample_input (Prng.Rng.create 1))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "--serve-child"; v; l; s ] ->
      Launcher.child_main
        { Launcher.vertices = int_of_string v; labeled = int_of_string l;
          seed = int_of_string s }
  | [ "--make-reference" ] ->
      force_lazy_inputs ();
      Sweeps.write_reference Sweeps.reference_path
  | args ->
      let rec parse acc = function
        | ("--workload" | "--seed" | "--seconds" | "--trace") as k :: v :: rest ->
            parse ((k, v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let workload = get "--workload" in
      let plan = match List.assoc_opt workload workloads with Some p -> p | None -> usage () in
      let num f k = match f (get k) with Some v -> v | None -> usage () in
      let seed = num int_of_string_opt "--seed" in
      let seconds = num float_of_string_opt "--seconds" in
      let trace = get "--trace" in
      List.iter
        (fun f ->
          if not (Sys.file_exists f) then begin
            prerr_endline ("perfbench: missing " ^ f ^ " (run from the repo root)");
            exit 2
          end)
        [ "BENCHMARK.json"; Sweeps.reference_path ];
      Parallel.Pool.set_default_domains 2;
      force_lazy_inputs ();
      match trace with
      | "0" -> run_untraced plan ~seed ~seconds
      | "1" -> run_traced workload plan ~seed ~seconds
      | _ -> usage ()
