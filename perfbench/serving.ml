(* The serve part of the traced run: an open-loop rate ladder against
   fresh server children, every answer checked against an in-process
   replay of the same request sequence. *)

open Perfbench_core
module J = Telemetry.Export
module Engine = Serve.Engine

(* The problem: [Serve.Soak.problem] at 250 vertices, a tenth labeled.
   At 500 vertices a query costs ~10 ms, and a reference step with enough
   queries for a p99 would not fit a run. *)
let vertices = 250
let labeled = 25

(* Every tenth request reveals the true label (the vertex's cluster) of a
   still-unlabeled vertex; a step reveals at most half of them. *)
let relabel_share = 0.1

(* p99 limit that defines [max_rate_rps]. *)
let limit_ms = 100.

(* The reference rate, about a third of one server's capacity. *)
let ref_rate = 80.

(* The reference step's 1120 requests hold ~1008 queries and ~112
   relabels: at least ten samples beyond p99 and p90 respectively. *)
let ref_requests = 1120

(* The rungs climbed after the reference rate (req/s), each this long.
   The top stays below one server's capacity (~240 req/s): past it the
   server sheds whole connections once ~55 responses queue up, and those
   requests would fail.  A run whose every rung passes reports 210. *)
let ladder = [ 130.; 170.; 210. ]
let rung_s = 1.5

(* Extra server launches per run, for a steadier set-up time. *)
let setup_launches = 8

let spec seed = { Launcher.vertices; labeled; seed }

let digest_of (r : Engine.response) =
  Printf.sprintf "%016Lx" (Net.Protocol.predictions_digest r.Engine.predictions)

let to_engine = function
  | Sched.Query -> Engine.Query
  | Sched.Relabel { vertex; label } -> Engine.Relabel { vertex; label }

let handle eng id kind =
  Engine.handle eng
    { Engine.id; arrival_ms = Serve.Clock.now_ms (Engine.clock eng);
      kind = to_engine kind; faults = [] }

(* Expected digests for a request sequence.  A clean query's answer is a
   function of the engine state alone, and only relabels change that
   state, so each state's query answer is computed once. *)
let replay_expected spec (sched : Sched.req array) =
  let eng = Launcher.engine spec in
  let state = ref None in
  Array.mapi
    (fun i r ->
      match r.Sched.kind with
      | Sched.Query -> (
          match !state with
          | Some d -> d
          | None ->
              let d = digest_of (handle eng (i + 1) Sched.Query) in
              state := Some d;
              d)
      | Sched.Relabel _ as k ->
          state := None;
          digest_of (handle eng (i + 1) k))
    sched

let parse_answer p =
  match J.parse p with
  | exception J.Parse_error _ -> None
  | j -> (
      match
        ( J.member "ok" j, J.member "status" j, J.member "pred_digest" j,
          J.member "latency_ms" j )
      with
      | Some (J.Bool true), Some (J.Str status), Some (J.Str digest), Some (J.Num l) ->
          let healthy = J.member "healthy" j = Some (J.Bool true) in
          Some { Verify.status; healthy; digest; latency_ms = l }
      | _ -> None)

let parse_counts p =
  match J.parse p with
  | exception J.Parse_error _ -> None
  | j ->
      let get o k =
        match Option.bind (J.member o j) (J.member k) with
        | Some (J.Num v) -> int_of_float v
        | _ -> -1_000_000
      in
      let t = get "transport" in
      Some
        { Verify.frames_ok = t "frames_ok";
          served = get "stats" "served";
          not_served = get "stats" "degraded" + get "stats" "shed";
          transport_failures =
            t "frames_rejected" + t "overflow_shed" + t "io_deadline_expired"
            + t "client_gone" }

type rung = {
  rate : float;
  sched : Sched.req array;
  out : Loadgen.outcome;
  answers : Verify.answer option array;
  latency_ms : float array;  (** from the scheduled send; horizon if failed *)
  failed : int;
  setup_s : float;
  rss_mb : float;
  counts : Verify.server_counts option;
  problems : string list;
}

(* How long a step waits for outstanding answers; a failed request is
   charged this latency. *)
let horizon_s = 30.

let run_rung ~seed ~index ~rate ~count =
  let spec = spec seed in
  let relabels = int_of_float (Float.round (relabel_share *. float_of_int count)) in
  let sched =
    Sched.make ~seed:((seed * 1_000_003) + (index * 7919) + 17) ~rate ~count ~relabels
      ~pool:(Array.init (vertices - labeled) (fun i -> labeled + i))
      ~label_of:(fun v -> float_of_int (v mod 2))
  in
  let failed_rung problems =
    { rate; sched;
      out = { Loadgen.sent_s = Array.make count nan; recv_s = Array.make count nan;
              payload = Array.make count None; stats = None; errors = []; origin_s = 0. };
      answers = Array.make count None;
      latency_ms = Array.make count (horizon_s *. 1e3); failed = count + 1;
      setup_s = nan; rss_mb = nan; counts = None; problems }
  in
  match Launcher.spawn spec with
  | Error e -> failed_rung [ e ]
  | Ok child ->
      let out = Loadgen.run ~port:child.Launcher.port ~sched ~drain_s:horizon_s in
      let rss_mb = Launcher.rss_mb child.Launcher.pid in
      let stopped = Launcher.stop child in
      let answers = Array.map (Option.map parse_answer) out.Loadgen.payload |> Array.map Option.join in
      let expected = replay_expected spec sched in
      let ok = Array.mapi (fun i a -> Verify.answered_ok ~expected:expected.(i) a) answers in
      let latency_ms =
        Array.mapi
          (fun i r ->
            if ok.(i) then (out.Loadgen.recv_s.(i) -. r.Sched.due_s) *. 1e3
            else horizon_s *. 1e3)
          sched
      in
      let counts = Option.bind out.Loadgen.stats parse_counts in
      let bad_requests = Verify.count_failed ~expected answers in
      let drain_failed = match stopped with Ok () -> 0 | Error _ -> 1 in
      let books =
        match counts with
        | Some c -> Verify.reconcile ~requests:count c
        | None -> 1
      in
      let examples =
        List.init count Fun.id
        |> List.filter (fun i -> not ok.(i))
        |> List.filteri (fun k _ -> k < 3)
        |> List.map (fun i ->
               match answers.(i) with
               | None -> Printf.sprintf "#%d unanswered" i
               | Some a ->
                   Printf.sprintf "#%d %s healthy=%b digest %s want %s" i a.Verify.status
                     a.Verify.healthy a.Verify.digest expected.(i))
      in
      let problems =
        out.Loadgen.errors
        @ (if bad_requests > 0 then
             [ Printf.sprintf "%.0f req/s: %d answer(s) wrong or missing (%s)" rate
                 bad_requests (String.concat "; " examples) ]
           else [])
        @ (if books > 0 then [ Printf.sprintf "server books off by %d" books ] else [])
        @ match stopped with Ok () -> [] | Error e -> [ e ]
      in
      { rate; sched; out; answers; latency_ms;
        failed = bad_requests + books + drain_failed; setup_s = child.Launcher.setup_s;
        rss_mb; counts; problems }

let select (r : rung) pred =
  let acc = ref [] in
  Array.iteri (fun i q -> if pred q then acc := r.latency_ms.(i) :: !acc) r.sched;
  Array.of_list (List.rev !acc)

let passes r =
  r.failed = 0 && Pct.quantile r.latency_ms 0.99 <= limit_ms
  && Pct.backlog_ok ~limit:limit_ms r.latency_ms

(* Run the reference rung, then climb the ladder until a rung misses the
   limit: the rungs above it would only pile up backlog.  Returns the
   reference rung first. *)
let run_ladder ~seed =
  let reference =
    run_rung ~seed ~index:0 ~rate:ref_rate ~count:ref_requests
  in
  let rec climb k acc = function
    | [] -> List.rev acc
    | rate :: rest ->
        let r =
          run_rung ~seed ~index:k ~rate ~count:(int_of_float (rate *. rung_s))
        in
        if passes r then climb (k + 1) (r :: acc) rest else List.rev (r :: acc)
  in
  reference :: (if passes reference then climb 1 [] ladder else [])

(* Spawn-to-accept time of fresh servers that take no traffic. *)
let setup_samples ~seed =
  List.init setup_launches (fun _ ->
      match Launcher.spawn (spec seed) with
      | Ok c ->
          let s = c.Launcher.setup_s in
          (s, match Launcher.stop c with Ok () -> 0 | Error _ -> 1)
      | Error _ -> (nan, 1))

let client_metrics rungs setups =
  let reference = List.hd rungs in
  let queries = select reference Sched.is_query in
  let relabels = select reference (fun r -> not (Sched.is_query r)) in
  (* a percentile without ten samples beyond it is a failed check *)
  let short = ref [] in
  let tail ~q what xs =
    match Pct.checked ~q xs with
    | Ok v -> v
    | Error e ->
        short := (what ^ ": " ^ e) :: !short;
        Pct.quantile xs q
  in
  let steps =
    List.map
      (fun r ->
        { Pct.rate = r.rate; p99 = Pct.quantile r.latency_ms 0.99;
          backlog_ok = Pct.backlog_ok ~limit:limit_ms r.latency_ms })
      rungs
  in
  let median l = Pct.median (Array.of_list l) in
  let metrics =
    [ Out.m "serve.setup_s" "s" (median (List.map (fun r -> r.setup_s) rungs @ List.map fst setups));
      Out.m "serve.query_p50_ms" "ms" (Pct.median queries);
      Out.m "serve.query_p99_ms" "ms" (tail ~q:0.99 "query p99" queries);
      Out.m "serve.relabel_p50_ms" "ms" (Pct.median relabels);
      Out.m "serve.relabel_p90_ms" "ms" (tail ~q:0.9 "relabel p90" relabels);
      Out.m "serve.max_rate_rps" "req/s" (Pct.max_rate ~limit:limit_ms steps);
      Out.m "serve.rss_mb" "MiB" (median (List.map (fun r -> r.rss_mb) rungs)) ]
  in
  let bad_launches = List.fold_left (fun a (_, f) -> a + f) 0 setups in
  { Out.metrics;
    attempted =
      List.fold_left (fun a r -> a + Array.length r.sched + 1) (List.length setups) rungs;
    failed =
      List.fold_left (fun a r -> a + r.failed) (bad_launches + List.length !short) rungs;
    problems =
      List.concat_map (fun r -> r.problems) rungs
      @ (if bad_launches > 0 then [ Printf.sprintf "%d launch(es) failed" bad_launches ] else [])
      @ !short }

let lateness_ms (r : rung) =
  Array.mapi (fun i q -> (r.out.Loadgen.sent_s.(i) -. q.Sched.due_s) *. 1e3) r.sched
  |> Array.to_list |> List.filter Float.is_finite |> Array.of_list

let describe rungs =
  List.iter
    (fun r ->
      let late = lateness_ms r in
      prerr_endline
        (Printf.sprintf
           "  %4.0f req/s  %5d req  p50 %7.3f ms  p99 %8.3f ms  setup %.3f s  lateness p99 %.3f ms  %s"
           r.rate (Array.length r.sched) (Pct.median r.latency_ms)
           (Pct.quantile r.latency_ms 0.99) r.setup_s
           (if Array.length late = 0 then nan else Pct.quantile late 0.99)
           (if Pct.backlog_ok ~limit:limit_ms r.latency_ms then "" else "backlog")))
    rungs

(* ---------- traced run: layer timings from an in-process replay ---------- *)

let median_of l = if l = [] then nan else Pct.median (Array.of_list l)

let traced_layers tr ~seed rungs =
  let reference = List.hd rungs in
  let spec = spec seed in
  let sched = reference.sched in
  (* client-side spans, one group per request *)
  List.iter
    (fun r ->
      let o = r.out.Loadgen.origin_s in
      Array.iteri
        (fun i q ->
          if Float.is_finite r.out.Loadgen.recv_s.(i) then begin
            let g = Tracer.new_group tr in
            let root =
              Tracer.record tr ~group:g ~name:"loadgen.request"
                ~start_s:(o +. q.Sched.due_s) ~stop_s:(o +. r.out.Loadgen.recv_s.(i)) ()
            in
            ignore
              (Tracer.record tr ~parent:root ~name:"loadgen.send_lateness"
                 ~start_s:(o +. q.Sched.due_s) ~stop_s:(o +. r.out.Loadgen.sent_s.(i)) ())
          end)
        r.sched)
    rungs;
  let server_ms pred =
    let acc = ref [] in
    Array.iteri
      (fun i q ->
        match reference.answers.(i) with
        | Some a when pred q -> acc := a.Verify.latency_ms :: !acc
        | _ -> ())
      sched;
    !acc
  in
  let wait_ms =
    let acc = ref [] in
    Array.iteri
      (fun i _ ->
        match reference.answers.(i) with
        | Some a ->
            acc :=
              ((reference.out.Loadgen.recv_s.(i) -. reference.out.Loadgen.sent_s.(i)) *. 1e3
              -. a.Verify.latency_ms)
              :: !acc
        | None -> ())
      sched;
    !acc
  in
  (* full in-process replay of the reference sequence, span per layer call *)
  let eng, create_s = Clock.time (fun () -> Launcher.engine spec) in
  let problem = Engine.problem eng in
  let inc, inc_create_s = Clock.time (fun () -> Gssl.Incremental.create problem) in
  let decode = ref [] and encode = ref [] and bytes = ref [] in
  let handle_q = ref [] and handle_r = ref [] and predict = ref [] and reveal = ref [] in
  let mismatches = ref 0 in
  let timed name acc f =
    let r, dt = Clock.time (fun () -> Tracer.with_span tr name f) in
    acc := dt :: !acc;
    r
  in
  Array.iteri
    (fun i q ->
      let frame = Loadgen.encode (Loadgen.frame_of q.Sched.kind) in
      Tracer.with_span tr ~group:(Tracer.new_group tr) "replay.request" (fun () ->
          let parsed =
            timed "net.decode_parse" decode (fun () ->
                match Net.Frame.feed (Net.Frame.create ()) frame with
                | [ Ok p ] -> Net.Protocol.parse_request p
                | _ -> Error Net.Protocol.Missing_op)
          in
          let kind =
            match parsed with
            | Ok (Net.Protocol.Relabel { vertex; label }) -> Sched.Relabel { vertex; label }
            | _ -> Sched.Query
          in
          let resp =
            timed "serve.handle"
              (if kind = Sched.Query then handle_q else handle_r)
              (fun () -> handle eng (i + 1) kind)
          in
          let wire =
            timed "net.encode" encode (fun () ->
                Net.Frame.encode (Net.Protocol.render (Net.Protocol.response_body resp)))
          in
          bytes := float_of_int (String.length wire) :: !bytes;
          (match reference.answers.(i) with
          | Some a when a.Verify.digest = digest_of resp -> ()
          | _ -> incr mismatches);
          match kind with
          | Sched.Query ->
              ignore (timed "gssl.incremental_predict" predict (fun () -> Gssl.Incremental.predict inc))
          | Sched.Relabel { vertex; label } ->
              timed "gssl.incremental_reveal" reveal (fun () ->
                  Gssl.Incremental.reveal inc ~vertex ~label)))
    sched;
  (* journal cost: the same queries through engines with and without it *)
  let journal_us =
    let with_j = Launcher.engine ~journal:true spec and without = Launcher.engine spec in
    let diffs =
      List.init 200 (fun i ->
          let _, a = Tracer.with_span tr "serve.handle_journal" (fun () ->
              Clock.time (fun () -> handle with_j (i + 1) Sched.Query)) in
          let _, b = Tracer.with_span tr "serve.handle_plain" (fun () ->
              Clock.time (fun () -> handle without (i + 1) Sched.Query)) in
          (a -. b) *. 1e6)
    in
    median_of diffs
  in
  (* dense linear algebra at this problem's m *)
  let system = Gssl.Hard.system_matrix problem in
  let m = fst (Linalg.Mat.dims system) in
  let inv, inv_s =
    Clock.time (fun () ->
        Tracer.with_span tr "linalg.cholesky_inverse" (fun () ->
            Linalg.Cholesky.inverse system))
  in
  let delete_ms =
    List.init 10 (fun k ->
        snd (Clock.time (fun () ->
            Tracer.with_span tr "linalg.delete_row_col" (fun () ->
                Linalg.Rank_one.delete_row_col inv (k * m / 10)))) *. 1e3)
  in
  let v = Array.init m (fun i -> float_of_int (i mod 7)) in
  let gemv_ms =
    List.init 50 (fun _ ->
        snd (Clock.time (fun () ->
            Tracer.with_span tr "linalg.gemv" (fun () -> Linalg.Mat.mv inv v))) *. 1e3)
  in
  let sum f = List.fold_left (fun a r -> a + match r.counts with Some c -> f c | None -> 0) 0 rungs in
  let ms l = median_of (List.map (fun s -> s *. 1e3) !l) in
  let handle_query_ms = ms handle_q and predict_ms = ms predict in
  let late = lateness_ms reference in
  let metrics =
    [ Out.m "net.decode_parse_us" "us" (ms decode *. 1e3);
      Out.m "net.encode_us" "us" (ms encode *. 1e3);
      Out.m "net.response_bytes" "bytes" (median_of !bytes);
      Out.m "net.wait_ms" "ms" (median_of wait_ms);
      Out.m "net.transport_failures" "count"
        (float_of_int (sum (fun c -> c.Verify.transport_failures)));
      Out.m "serve.engine_query_ms" "ms" (median_of (server_ms Sched.is_query));
      Out.m "serve.engine_relabel_ms" "ms"
        (median_of (server_ms (fun q -> not (Sched.is_query q))));
      Out.m "serve.handle_query_ms" "ms" handle_query_ms;
      Out.m "serve.handle_relabel_ms" "ms" (ms handle_r);
      Out.m "serve.query_self_ms" "ms" (handle_query_ms -. predict_ms);
      Out.m "serve.journal_us" "us" journal_us;
      Out.m "serve.create_s" "s" create_s;
      Out.m "serve.not_served" "count" (float_of_int (sum (fun c -> c.Verify.not_served)));
      Out.m "gssl.incremental_create_s" "s" inc_create_s;
      Out.m "gssl.incremental_predict_ms" "ms" predict_ms;
      Out.m "gssl.incremental_reveal_ms" "ms" (ms reveal);
      Out.m "linalg.cholesky_inverse_s" "s" inv_s;
      Out.m "linalg.delete_row_col_ms" "ms" (median_of delete_ms);
      Out.m "linalg.gemv_ms" "ms" (median_of gemv_ms);
      Out.m "bench.gen_lateness_ms" "ms" (Pct.quantile late 0.99) ]
  in
  (metrics, !mismatches)

(* The serve part: the ladder, checked with the memoised replay, then the
   reference step replayed in full under spans.  Returns the part's
   outcome and its per-layer metrics (client-side figures included). *)
let run tr ~seed =
  let setups = setup_samples ~seed in
  let rungs = run_ladder ~seed in
  describe rungs;
  let client = client_metrics rungs setups in
  let layers, mismatches = traced_layers tr ~seed rungs in
  ( { client with
      Out.metrics = [];
      failed = client.Out.failed + mismatches;
      problems =
        client.Out.problems
        @ if mismatches = 0 then [] else [ Printf.sprintf "%d replay mismatch(es)" mismatches ] },
    client.Out.metrics @ layers )
