module Engine = Serve.Engine
module Clock = Serve.Clock
module Soak = Serve.Soak
module Transport = Serve.Transport
module Rng = Prng.Rng
module J = Telemetry.Export

type config = {
  connections : int;
  seed : int;
  n_vertices : int;
  n_labeled : int;
  hostile_rate : float;
  mean_gap_ms : float;
  burst_every : int;
  burst_size : int;
  io_deadline_ms : float;
  deadline_ms : float;
  verify_replay : bool;
  journal : bool;
}

let default =
  { connections = 1200;
    seed = 42;
    n_vertices = 80;
    n_labeled = 20;
    hostile_rate = 0.45;
    mean_gap_ms = 3.;
    burst_every = 89;
    burst_size = 16;
    io_deadline_ms = 50.;
    deadline_ms = 25.;
    verify_replay = false;
    journal = false }

type summary = {
  connections : int;
  frames_sent : int;
  responses : int;
  ok_responses : int;
  error_responses : int;
  served : int;
  degraded : int;
  frames_ok : int;
  frames_rejected : int;
  client_gone : int;
  io_deadline_expired : int;
  overflow_shed : int;
  max_conn_buffer : int;
  journal_lines : int;
  journal_digest : int64;
  digest : int64;
  replay_verified : bool;
  wall_ms : float;
  violations : string list;
}

(* ---------- scenario scripts ---------- *)

type ev =
  | Send of string
  | Stall of float
  | Half_close  (* shut down the write side; keep reading *)
  | Drop        (* vanish without reading anything *)

type expect =
  | Ok_n of int          (* this many ok:true responses, no errors *)
  | Err of string        (* an ok:false response with this error code *)
  | Io_deadline          (* the connection's I/O deadline must expire *)
  | Gone                 (* the connection must count client_gone *)

type scenario = {
  sid : int;
  arrival_ms : float;
  name : string;
  events : ev list;
  expect : expect;
  reads : bool;           (* drains responses as the script runs *)
  small_buffer : bool;    (* run with a tiny output buffer (overflow) *)
  exp_ok_frames : int;    (* frames the transport should accept *)
  exp_rejected : int;     (* frames it should answer with a typed error *)
  exp_io : bool;
  exp_gone : bool;
}

let query_frame = lazy (Frame.encode (Protocol.render_request Protocol.Query))
let stats_frame = lazy (Frame.encode (Protocol.render_request Protocol.Stats))
let metrics_frame =
  lazy (Frame.encode (Protocol.render_request Protocol.Metrics))

let relabel_frame ~vertex ~label =
  Frame.encode (Protocol.render_request (Protocol.Relabel { vertex; label }))

let random_bytes rng n =
  String.init n (fun _ -> Char.chr (Rng.int rng 256))

(* Split [s] into [k] nonempty chunks at rng-chosen cut points. *)
let chunks rng k s =
  let n = String.length s in
  let k = Stdlib.max 1 (Stdlib.min k (n - 1)) in
  let cuts =
    List.init (k - 1) (fun _ -> 1 + Rng.int rng (n - 1))
    |> List.sort_uniq compare
  in
  let rec pieces start = function
    | [] -> [ String.sub s start (n - start) ]
    | c :: rest -> String.sub s start (c - start) :: pieces c rest
  in
  pieces 0 cuts

(* ---------- the byte-corruption menu ---------- *)

(* The pinned netsoak digests fix each case's draws and their order.
   [^] evaluates its right operand first, so bad_magic draws its random
   tail before its first byte. *)
type corruption = {
  name : string;
  code : string;
  fatal : bool;
  bytes : Rng.t -> string;
}

let corruptions =
  [|
    { name = "bad_magic"; code = "bad_magic"; fatal = true;
      bytes =
        (fun rng ->
          String.make 1 (Char.chr (Char.code 'A' + Rng.int rng 6))
          ^ random_bytes rng (3 + Rng.int rng 12)) };
    { name = "bad_version"; code = "bad_version"; fatal = true;
      bytes =
        (fun rng ->
          let v = 2 + Rng.int rng 250 in
          Frame.magic ^ String.make 1 (Char.chr v) ^ random_bytes rng 4) };
    { name = "too_large"; code = "too_large"; fatal = true;
      bytes = (fun _ -> Frame.magic ^ "\001\x7f\xff\xff\xff") };
    { name = "truncated"; code = "truncated"; fatal = true;
      bytes =
        (fun rng ->
          let f = Lazy.force query_frame in
          let cut = 1 + Rng.int rng (String.length f - 1) in
          String.sub f 0 cut) };
    { name = "garbage_json"; code = "malformed_json"; fatal = false;
      bytes =
        (fun rng ->
          Frame.encode ("\000" ^ random_bytes rng (1 + Rng.int rng 24))) };
    { name = "unknown_op"; code = "unknown_op"; fatal = false;
      bytes = (fun _ -> Frame.encode "{\"op\":\"frobnicate\"}") };
    { name = "missing_field"; code = "missing_field"; fatal = false;
      bytes = (fun _ -> Frame.encode "{\"op\":\"relabel\",\"vertex\":5}") };
    { name = "nonfinite_label"; code = "bad_field"; fatal = false;
      bytes =
        (fun _ ->
          Frame.encode "{\"op\":\"relabel\",\"vertex\":5,\"label\":1e999}") };
  |]

(* ---------- the scenario trace ---------- *)

let base ~sid ~arrival ~name ~events ~expect =
  { sid; arrival_ms = arrival; name; events; expect; reads = true;
    small_buffer = false; exp_ok_frames = 0; exp_rejected = 0;
    exp_io = false; exp_gone = false }

let gen cfg prob =
  let rng = Rng.create ((cfg.seed * 6563) + 29) in
  let pool = Soak.relabel_pool rng prob in
  let io = cfg.io_deadline_ms in
  Soak.schedule rng ~count:cfg.connections ~mean_gap_ms:cfg.mean_gap_ms
    ~burst_every:cfg.burst_every ~burst_size:cfg.burst_size (fun sid a ->
      let q () = Lazy.force query_frame in
      let clean () =
        match Rng.int rng 6 with
        | 0 ->
            { (base ~sid ~arrival:a ~name:"query"
                 ~events:[ Send (q ()); Half_close ] ~expect:(Ok_n 1))
              with exp_ok_frames = 1 }
        | 1 ->
            (* the frame dribbles in, but well inside the I/O deadline *)
            let parts = chunks rng (2 + Rng.int rng 3) (q ()) in
            let events =
              List.concat_map
                (fun p -> [ Send p; Stall (io /. 10.) ])
                parts
              @ [ Half_close ]
            in
            { (base ~sid ~arrival:a ~name:"chunked_query" ~events
                 ~expect:(Ok_n 1))
              with exp_ok_frames = 1 }
        | 2 when Soak.relabels_left pool ->
            let vertex = Soak.take_relabel pool in
            let label = float_of_int (vertex mod 2) in
            { (base ~sid ~arrival:a ~name:"relabel"
                 ~events:[ Send (relabel_frame ~vertex ~label); Half_close ]
                 ~expect:(Ok_n 1))
              with exp_ok_frames = 1 }
        | 3 ->
            { (base ~sid ~arrival:a ~name:"stats"
                 ~events:[ Send (Lazy.force stats_frame); Half_close ]
                 ~expect:(Ok_n 1))
              with exp_ok_frames = 1 }
        | 4 ->
            { (base ~sid ~arrival:a ~name:"metrics"
                 ~events:[ Send (Lazy.force metrics_frame); Half_close ]
                 ~expect:(Ok_n 1))
              with exp_ok_frames = 1 }
        | _ ->
            { (base ~sid ~arrival:a ~name:"pipelined"
                 ~events:[ Send (q () ^ q ()); Half_close ]
                 ~expect:(Ok_n 2))
              with exp_ok_frames = 2 }
      in
      let hostile () =
        match Rng.int rng 12 with
        | k when k < Array.length corruptions ->
            let c = corruptions.(k) in
            { (base ~sid ~arrival:a ~name:c.name
                 ~events:[ Send (c.bytes rng); Half_close ]
                 ~expect:(Err c.code))
              with exp_rejected = 1 }
        | 8 ->
            (* slowloris: a few header bytes, then silence past the
               I/O deadline *)
            let f = q () in
            let k = 1 + Rng.int rng (Frame.header_len - 1) in
            { (base ~sid ~arrival:a ~name:"slowloris"
                 ~events:
                   [ Send (String.sub f 0 k); Stall ((io *. 2.) +. 1.) ]
                 ~expect:Io_deadline)
              with exp_rejected = 1; exp_io = true }
        | 9 ->
            (* send a valid query, then vanish before reading *)
            { (base ~sid ~arrival:a ~name:"drop" ~events:[ Send (q ()); Drop ]
                 ~expect:Gone)
              with reads = false; exp_ok_frames = 1; exp_gone = true }
        | 10 ->
            (* never reads its answer: the write deadline fires *)
            { (base ~sid ~arrival:a ~name:"slow_reader"
                 ~events:[ Send (q ()); Stall ((io *. 2.) +. 1.) ]
                 ~expect:Io_deadline)
              with reads = false; exp_ok_frames = 1; exp_io = true }
        | _ ->
            (* pipelined burst against a tiny output buffer: the second
               frame must shed as overloaded *)
            { (base ~sid ~arrival:a ~name:"overflow"
                 ~events:[ Send (q () ^ q ()); Half_close ]
                 ~expect:(Err "overloaded"))
              with small_buffer = true; exp_ok_frames = 1; exp_rejected = 1 }
      in
      if Rng.float rng < cfg.hostile_rate then hostile () else clean ())

(* ---------- replay ---------- *)

type rundata = {
  r_responses : int;
  r_ok : int;
  r_err : int;
  r_frames_sent : int;
  r_max_buffer : int;
  r_violations : string list;
}

let mix = Prng.Splitmix64.combine

let mix_string h s =
  let acc = ref h in
  String.iter (fun c -> acc := mix !acc (Int64.of_int (Char.code c))) s;
  !acc

(* One run of the script through [Conn] on the harness's engine and
   virtual clock: what the clients read back, the transport counters
   reconciled against the script, and the response-byte digest. *)
let drive cfg scenarios clock engine =
  let tr = Engine.transport engine in
  let next_req = ref 0 in
  let fresh_id () =
    incr next_req;
    !next_req
  in
  let conn_cfg =
    { Conn.default_config with Conn.io_deadline_ms = cfg.io_deadline_ms }
  in
  let violations = ref [] in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let digest = ref 0x6e657430L in
  let responses_total = ref 0 in
  let ok_total = ref 0 in
  let err_total = ref 0 in
  let frames_sent = ref 0 in
  let max_buffer = ref 0 in
  List.iter
    (fun sc ->
      Clock.jump clock sc.arrival_ms;
      let config =
        if sc.small_buffer then { conn_cfg with Conn.max_buffered = 64 }
        else conn_cfg
      in
      let conn = Conn.create ~config ~engine ~fresh_id ~id:sc.sid () in
      let dec = Frame.create () in
      let got = ref [] in
      let drain () =
        if sc.reads then begin
          let s = Conn.pending conn in
          if String.length s > 0 then begin
            Conn.consume conn (String.length s);
            List.iter
              (function
                | Ok payload -> got := payload :: !got
                | Error e ->
                    note "conn %d (%s): server sent an invalid frame (%s)"
                      sc.sid sc.name (Frame.error_code e))
              (Frame.feed dec s)
          end
        end
      in
      (try
         List.iter
           (fun ev ->
             match ev with
             | Send s ->
                 Conn.on_bytes conn s;
                 Conn.tick conn;
                 drain ()
             | Stall ms ->
                 Clock.advance clock ms;
                 Conn.tick conn;
                 drain ()
             | Half_close ->
                 Conn.on_eof conn;
                 Conn.tick conn;
                 drain ()
             | Drop -> Conn.abort conn ~reason:"disconnect")
           sc.events;
         Conn.tick conn;
         drain ();
         if not (Conn.is_closed conn) then
           Conn.shutdown conn ~reason:"client done"
       with e ->
         (* the whole point: nothing a client does may raise *)
         note "conn %d (%s): escaped exception %s" sc.sid sc.name
           (Printexc.to_string e));
      frames_sent := !frames_sent + sc.exp_ok_frames;
      if Conn.max_buffered_seen conn > !max_buffer then
        max_buffer := Conn.max_buffered_seen conn;
      (* classify what the client read back *)
      let resps = List.rev !got in
      let parsed =
        List.filter_map
          (fun p ->
            match J.parse p with
            | j -> Some j
            | exception J.Parse_error _ ->
                note "conn %d (%s): unparseable response payload" sc.sid
                  sc.name;
                None)
          resps
      in
      let oks, errs =
        List.partition
          (fun j -> J.member "ok" j = Some (J.Bool true))
          parsed
      in
      responses_total := !responses_total + List.length parsed;
      ok_total := !ok_total + List.length oks;
      err_total := !err_total + List.length errs;
      (* zero unflagged degradation: a served answer must certify
         healthy; anything else must carry its reason *)
      List.iter
        (fun j ->
          match J.member "status" j with
          | None -> ()  (* stats/metrics bodies *)
          | Some (J.Str "served") ->
              if J.member "healthy" j <> Some (J.Bool true) then
                note "conn %d (%s): served answer without a healthy cert"
                  sc.sid sc.name
          | Some (J.Str _) ->
              if J.member "reason" j = None then
                note "conn %d (%s): degraded answer without a reason" sc.sid
                  sc.name
          | Some _ ->
              note "conn %d (%s): non-string status" sc.sid sc.name)
        oks;
      (match sc.expect with
      | Ok_n want ->
          if List.length oks <> want || errs <> [] then
            note "conn %d (%s): expected %d ok response(s), got %d ok / %d err"
              sc.sid sc.name want (List.length oks) (List.length errs)
      | Err code ->
          let has =
            List.exists
              (fun j -> J.member "error" j = Some (J.Str code))
              errs
          in
          if not has then
            note "conn %d (%s): expected error %S, got %s" sc.sid sc.name code
              (String.concat ","
                 (List.filter_map
                    (fun j ->
                      Option.bind (J.member "error" j) (fun v -> J.to_str v))
                    errs))
      | Io_deadline ->
          if not (Conn.io_expired conn) then
            note "conn %d (%s): I/O deadline did not expire" sc.sid sc.name
      | Gone ->
          if not (Conn.aborted conn) then
            note "conn %d (%s): client_gone not recorded" sc.sid sc.name);
      (* order-sensitive response-byte digest, plus the connection's
         span-tree digest so transport traces must replay too *)
      digest := mix !digest (Int64.of_int sc.sid);
      List.iter (fun p -> digest := mix_string !digest p) resps;
      digest := mix !digest (Int64.of_int (Conn.frames conn));
      digest := mix !digest (Int64.of_int (Conn.rejected conn));
      digest := mix !digest (Obs.Trace_ctx.digest (Conn.ctx conn)))
    scenarios;
  (* counter reconciliation against the script *)
  let exp_ok = List.fold_left (fun a s -> a + s.exp_ok_frames) 0 scenarios in
  let exp_rej = List.fold_left (fun a s -> a + s.exp_rejected) 0 scenarios in
  let exp_io =
    List.length (List.filter (fun s -> s.exp_io) scenarios)
  in
  let exp_gone =
    List.length (List.filter (fun s -> s.exp_gone) scenarios)
  in
  let exp_overflow =
    List.length (List.filter (fun s -> s.small_buffer) scenarios)
  in
  let check name got want =
    if got <> want then
      note "counter %s: got %d, script expects %d" name got want
  in
  check "frames_ok" tr.Transport.frames_ok exp_ok;
  check "frames_rejected" tr.Transport.frames_rejected exp_rej;
  check "io_deadline_expired" tr.Transport.io_deadline_expired exp_io;
  check "client_gone" tr.Transport.client_gone exp_gone;
  check "overflow_shed" tr.Transport.overflow_shed exp_overflow;
  check "conns_opened" tr.Transport.conns_opened (List.length scenarios);
  check "conns_closed" tr.Transport.conns_closed (List.length scenarios);
  if !max_buffer > Conn.default_config.Conn.max_buffered + 65536 then
    note "connection buffer grew unbounded: %d bytes" !max_buffer;
  digest := mix !digest (Int64.of_int tr.Transport.frames_ok);
  digest := mix !digest (Int64.of_int tr.Transport.frames_rejected);
  digest := mix !digest (Int64.of_int tr.Transport.io_deadline_expired);
  digest :=
    mix !digest
      (match Engine.journal engine with
      | Some j -> Obs.Journal.digest j
      | None -> 0L);
  ( { r_responses = !responses_total;
      r_ok = !ok_total;
      r_err = !err_total;
      r_frames_sent = !frames_sent;
      r_max_buffer = !max_buffer;
      r_violations = List.rev !violations },
    !digest )

let run_full cfg =
  let prob =
    Soak.problem ~seed:cfg.seed ~n_vertices:cfg.n_vertices
      ~n_labeled:cfg.n_labeled
  in
  let scenarios = gen cfg prob in
  let r =
    Soak.replay ~verify_replay:cfg.verify_replay ~journal:cfg.journal
      { Engine.default_config with
        Engine.deadline_ms = cfg.deadline_ms;
        seed = cfg.seed }
      prob (drive cfg scenarios)
  in
  let first = r.Soak.result in
  let st = Engine.stats r.Soak.engine in
  let tr = Engine.transport r.Soak.engine in
  ( { connections = List.length scenarios;
      frames_sent = first.r_frames_sent;
      responses = first.r_responses;
      ok_responses = first.r_ok;
      error_responses = first.r_err;
      served = st.Engine.served;
      degraded = st.Engine.degraded;
      frames_ok = tr.Transport.frames_ok;
      frames_rejected = tr.Transport.frames_rejected;
      client_gone = tr.Transport.client_gone;
      io_deadline_expired = tr.Transport.io_deadline_expired;
      overflow_shed = tr.Transport.overflow_shed;
      max_conn_buffer = first.r_max_buffer;
      journal_lines = r.Soak.journal_lines;
      journal_digest = r.Soak.journal_digest;
      digest = r.Soak.digest;
      replay_verified = r.Soak.replay_verified;
      wall_ms = r.Soak.wall_ms;
      violations = first.r_violations @ r.Soak.violations },
    r.Soak.engine )

let run cfg = fst (run_full cfg)
let ok s = s.violations = []

let describe s =
  Printf.sprintf
    "hostile soak: %d conns, %d frames -> %d responses (%d ok / %d err); \
     engine served=%d degraded=%d; transport ok=%d rejected=%d gone=%d \
     io_expired=%d overflow=%d; max_buffer=%dB; journal=%d lines; \
     digest=%016Lx replay=%s; %.0f ms; %s"
    s.connections s.frames_sent s.responses s.ok_responses s.error_responses
    s.served s.degraded s.frames_ok s.frames_rejected s.client_gone
    s.io_deadline_expired s.overflow_shed s.max_conn_buffer s.journal_lines
    s.digest
    (if s.replay_verified then "verified" else "DIVERGED")
    s.wall_ms
    (match s.violations with
    | [] -> "all invariants hold"
    | vs -> Printf.sprintf "%d VIOLATION(S): %s" (List.length vs)
              (String.concat " | " vs))
