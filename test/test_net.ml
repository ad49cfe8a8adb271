(* Networked serving (lib/net): the framed wire codec is total, the
   protocol parser is total, the connection state machine holds its
   I/O deadlines and backpressure bounds on the virtual clock, a real
   socket round-trip answers bit-identically to an in-process
   Engine.handle, transport counters surface through Engine.metrics,
   and the hostile-client soak holds every invariant with a
   digest-identical replay. *)

open Test_util
module Frame = Net.Frame
module Protocol = Net.Protocol
module Conn = Net.Conn
module Server = Net.Server
module Hostile = Net.Hostile
module Engine = Serve.Engine
module Clock = Serve.Clock
module Soak = Serve.Soak
module Transport = Serve.Transport
module Expo = Obs.Expo
module J = Telemetry.Export

(* ------------------------------------------------------------------ *)
(* frame codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_frame_layout () =
  let f = Frame.encode "abc" in
  Alcotest.(check int) "length" (Frame.header_len + 3) (String.length f);
  Alcotest.(check string) "magic" Frame.magic (String.sub f 0 4);
  Alcotest.(check int) "version" Frame.version (Char.code f.[4]);
  Alcotest.(check int) "u32 hi" 0 (Char.code f.[5]);
  Alcotest.(check int) "u32 lo" 3 (Char.code f.[8]);
  Alcotest.(check string) "payload" "abc" (String.sub f 9 3);
  (* empty payload is legal *)
  let d = Frame.create () in
  (match Frame.feed d (Frame.encode "") with
  | [ Ok "" ] -> ()
  | _ -> Alcotest.fail "empty payload should decode");
  Alcotest.(check (option string)) "clean finish" None
    (Option.map Frame.error_code (Frame.finish d))

(* encode . decode = id under arbitrary payloads (NULs included) and
   arbitrary chunk boundaries, with pipelined frames *)
let prop_frame_roundtrip_chunked seed =
  let rng = Prng.Rng.create (seed + 77) in
  let rand n = Prng.Rng.int rng n in
  let payload () =
    String.init (rand 200) (fun _ -> Char.chr (rand 256))
  in
  let payloads = List.init (1 + rand 3) (fun _ -> payload ()) in
  let wire = String.concat "" (List.map Frame.encode payloads) in
  let d = Frame.create () in
  let out = ref [] in
  let i = ref 0 in
  while !i < String.length wire do
    let n = min (1 + rand 17) (String.length wire - !i) in
    let events = Frame.feed d (String.sub wire !i n) in
    List.iter
      (function
        | Ok p -> out := p :: !out
        | Error e -> Alcotest.failf "unexpected %s" (Frame.error_code e))
      events;
    i := !i + n
  done;
  Frame.finish d = None
  && (not (Frame.in_progress d))
  && List.rev !out = payloads

let adversarial_corpus =
  [
    ("wrong first byte", "XSSL\001\000\000\000\001x", "bad_magic");
    ("wrong fourth byte", "GSSX\001\000\000\000\001x", "bad_magic");
    ("NUL magic", "\000\000\000\000\000", "bad_magic");
    ("bad version", "GSSL\002\000\000\000\001x", "bad_version");
    ("version 0", "GSSL\000", "bad_version");
    ("length over limit", "GSSL\001\255\255\255\255", "too_large");
  ]

let test_frame_adversarial_corpus () =
  List.iter
    (fun (name, bytes, code) ->
      let d = Frame.create () in
      let errs =
        List.filter_map
          (function Error e -> Some (Frame.error_code e) | Ok _ -> None)
          (Frame.feed d bytes)
      in
      Alcotest.(check (list string)) name [ code ] errs;
      Alcotest.(check (option string))
        (name ^ ": latched") (Some code)
        (Option.map Frame.error_code (Frame.failed d));
      (* a latched decoder discards further input, even a valid frame *)
      Alcotest.(check int)
        (name ^ ": discards after latch") 0
        (List.length (Frame.feed d (Frame.encode "{}"))))
    adversarial_corpus

let test_frame_truncation_and_limits () =
  (* EOF mid-header *)
  let d = Frame.create () in
  ignore (Frame.feed d "GS");
  (match Frame.finish d with
  | Some (Frame.Truncated { have; need }) ->
      Alcotest.(check int) "header have" 2 have;
      Alcotest.(check int) "header need" Frame.header_len need
  | _ -> Alcotest.fail "expected Truncated at EOF mid-header");
  (* EOF mid-body *)
  let d = Frame.create () in
  let f = Frame.encode "0123456789" in
  ignore (Frame.feed d (String.sub f 0 (String.length f - 4)));
  Alcotest.(check bool) "in progress" true (Frame.in_progress d);
  (match Frame.finish d with
  | Some (Frame.Truncated _) -> ()
  | _ -> Alcotest.fail "expected Truncated at EOF mid-body");
  (* a custom payload cap rejects the header before buffering the body *)
  let d = Frame.create ~max_payload:8 () in
  match Frame.feed d (Frame.encode "123456789") with
  | [ Error (Frame.Too_large { length = 9; limit = 8 }) ] -> ()
  | _ -> Alcotest.fail "expected Too_large under max_payload:8"

(* any byte garbage: the decoder emits typed errors, never raises *)
let prop_frame_total seed =
  let rng = Prng.Rng.create (seed + 131) in
  let junk =
    String.init
      (1 + Prng.Rng.int rng 64)
      (fun _ -> Char.chr (Prng.Rng.int rng 256))
  in
  let d = Frame.create () in
  ignore (Frame.feed d junk);
  ignore (Frame.finish d);
  true

(* ------------------------------------------------------------------ *)
(* protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse_ok () =
  let ok s = Protocol.parse_request s in
  (match ok {|{"op":"query"}|} with
  | Ok Protocol.Query -> ()
  | _ -> Alcotest.fail "query");
  (match ok {|{"op":"stats"}|} with
  | Ok Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats");
  (match ok {|{"op":"metrics"}|} with
  | Ok Protocol.Metrics -> ()
  | _ -> Alcotest.fail "metrics");
  (match ok {|{"op":"relabel","vertex":64,"label":1.5}|} with
  | Ok (Protocol.Relabel { vertex = 64; label = 1.5 }) -> ()
  | _ -> Alcotest.fail "relabel");
  (* render . parse = id for every canonical request *)
  List.iter
    (fun r ->
      match Protocol.parse_request (Protocol.render_request r) with
      | Ok r' when r = r' -> ()
      | _ -> Alcotest.failf "round-trip failed for %s" (Protocol.op_name r))
    [
      Protocol.Query;
      Protocol.Stats;
      Protocol.Metrics;
      Protocol.Relabel { vertex = 3; label = -2.25 };
    ]

let expect_code want s =
  match Protocol.parse_request s with
  | Error e -> Alcotest.(check string) s want (Protocol.error_code e)
  | Ok r -> Alcotest.failf "%s: expected %s, parsed %s" s want
              (Protocol.op_name r)

let test_protocol_parse_errors_typed () =
  expect_code "malformed_json" "{";
  expect_code "malformed_json" "\000\255garbage";
  expect_code "not_an_object" "[1,2,3]";
  expect_code "not_an_object" "42";
  expect_code "missing_op" "{}";
  expect_code "missing_op" {|{"vertex":1}|};
  expect_code "unknown_op" {|{"op":"evict"}|};
  expect_code "missing_field" {|{"op":"relabel","vertex":1}|};
  expect_code "missing_field" {|{"op":"relabel","label":1.0}|};
  (* non-finite numerics never reach the engine *)
  expect_code "bad_field" {|{"op":"relabel","vertex":1,"label":1e999}|};
  expect_code "bad_field" {|{"op":"relabel","vertex":1,"label":-1e999}|};
  (* vertex must be a small integer *)
  expect_code "bad_field" {|{"op":"relabel","vertex":1.5,"label":1.0}|};
  expect_code "bad_field" {|{"op":"relabel","vertex":1e12,"label":1.0}|};
  expect_code "bad_field" {|{"op":"relabel","vertex":"x","label":1.0}|}

let prop_protocol_total seed =
  let rng = Prng.Rng.create (seed + 997) in
  let junk =
    String.init (Prng.Rng.int rng 80) (fun _ -> Char.chr (Prng.Rng.int rng 256))
  in
  (match Protocol.parse_request junk with Ok _ | Error _ -> ());
  true

(* ------------------------------------------------------------------ *)
(* connection state machine (virtual clock, no sockets)                *)
(* ------------------------------------------------------------------ *)

let conn_fixture ?(config = Conn.default_config) () =
  let prob = Soak.problem ~seed:3 ~n_vertices:40 ~n_labeled:10 in
  let clock = Clock.virtual_ () in
  let engine =
    Engine.create ~clock
      { Engine.default_config with Engine.deadline_ms = 50.; seed = 7 }
      prob
  in
  let next = ref 0 in
  let conn =
    Conn.create ~config ~engine
      ~fresh_id:(fun () -> incr next; !next)
      ~id:1 ()
  in
  (conn, engine, clock)

(* drain the connection's output through a client-side decoder *)
let read_responses conn =
  let s = Conn.pending conn in
  Conn.consume conn (String.length s);
  let d = Frame.create () in
  List.filter_map
    (function Ok p -> Some (J.parse p) | Error _ -> None)
    (Frame.feed d s)

let field name conv j = Option.bind (J.member name j) conv

let test_conn_query_roundtrip () =
  let conn, engine, _ = conn_fixture () in
  Conn.on_bytes conn (Frame.encode (Protocol.render_request Protocol.Query));
  Alcotest.(check int) "one frame" 1 (Conn.frames conn);
  (match read_responses conn with
  | [ j ] ->
      Alcotest.(check (option bool)) "ok" (Some true) (field "ok" J.to_bool j);
      Alcotest.(check (option string)) "served" (Some "served")
        (field "status" J.to_str j);
      Alcotest.(check (option bool)) "healthy" (Some true)
        (field "healthy" J.to_bool j);
      Alcotest.(check bool) "pred_digest present" true
        (field "pred_digest" J.to_str j <> None)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  let tr = Engine.transport engine in
  Alcotest.(check int) "frames_ok counted" 1 tr.Transport.frames_ok;
  Alcotest.(check int) "conns_opened counted" 1 tr.Transport.conns_opened

(* The engine's answer lands as the [status] field of the connection
   trace's [frame] span, next to the frame's [op]. *)
let test_conn_frame_span_status () =
  let conn, _, _ = conn_fixture () in
  Conn.on_bytes conn (Frame.encode (Protocol.render_request Protocol.Query));
  match
    List.filter
      (fun (s : Telemetry.Span.node) -> s.name = "frame")
      (Telemetry.Span.nodes (Conn.ctx conn))
  with
  | [ frame ] ->
      Alcotest.(check bool) "op field" true
        (List.assoc_opt "op" frame.fields = Some (Telemetry.Span.Str "query"));
      Alcotest.(check bool) "status = served" true
        (List.assoc_opt "status" frame.fields
        = Some (Telemetry.Span.Str "served"))
  | frames -> Alcotest.failf "expected 1 frame span, got %d" (List.length frames)

let test_conn_json_errors_recoverable () =
  let conn, engine, _ = conn_fixture () in
  (* garbage JSON in a well-formed frame: typed error, conn survives *)
  Conn.on_bytes conn (Frame.encode "\000not json at all");
  (match read_responses conn with
  | [ j ] ->
      Alcotest.(check (option bool)) "ok=false" (Some false)
        (field "ok" J.to_bool j);
      Alcotest.(check (option string)) "code" (Some "malformed_json")
        (field "error" J.to_str j)
  | _ -> Alcotest.fail "expected one error response");
  Alcotest.(check bool) "conn still open" false (Conn.want_close conn);
  (* the same connection then serves a clean query *)
  Conn.on_bytes conn (Frame.encode {|{"op":"query"}|});
  (match read_responses conn with
  | [ j ] ->
      Alcotest.(check (option bool)) "recovered" (Some true)
        (field "ok" J.to_bool j)
  | _ -> Alcotest.fail "expected recovery response");
  let tr = Engine.transport engine in
  Alcotest.(check int) "rejected=1" 1 tr.Transport.frames_rejected;
  Alcotest.(check int) "ok=1" 1 tr.Transport.frames_ok

let test_conn_framing_error_fatal () =
  let conn, _, _ = conn_fixture () in
  Conn.on_bytes conn "EVIL";
  (match read_responses conn with
  | [ j ] ->
      Alcotest.(check (option string)) "bad_magic" (Some "bad_magic")
        (field "error" J.to_str j)
  | _ -> Alcotest.fail "expected bad_magic response");
  Alcotest.(check bool) "framing fault closes the conn" true
    (Conn.want_close conn || Conn.is_closed conn)

let test_conn_io_deadline_slowloris () =
  let config = { Conn.default_config with Conn.io_deadline_ms = 50. } in
  let conn, engine, clock = conn_fixture ~config () in
  (* a frame starts... and stalls *)
  Conn.on_bytes conn "GSSL\001";
  Clock.advance clock 40.;
  Conn.tick conn;
  Alcotest.(check bool) "within deadline" false (Conn.io_expired conn);
  Clock.advance clock 20.;
  Conn.tick conn;
  Alcotest.(check bool) "expired" true (Conn.io_expired conn);
  (match read_responses conn with
  | [ j ] ->
      Alcotest.(check (option string)) "io_deadline" (Some "io_deadline")
        (field "error" J.to_str j)
  | _ -> Alcotest.fail "expected io_deadline response");
  Alcotest.(check bool) "closing" true
    (Conn.want_close conn || Conn.is_closed conn);
  Alcotest.(check int) "counted" 1
    (Engine.transport engine).Transport.io_deadline_expired

let test_conn_overflow_sheds () =
  let config = { Conn.default_config with Conn.max_buffered = 64 } in
  let conn, engine, _ = conn_fixture ~config () in
  (* first query queues a response nobody reads; the second arrives
     over the bound and is shed with an explicit status *)
  Conn.on_bytes conn (Frame.encode {|{"op":"query"}|});
  Alcotest.(check bool) "output buffered" true (Conn.pending_len conn > 64);
  Conn.on_bytes conn (Frame.encode {|{"op":"query"}|});
  Alcotest.(check int) "overflow counted" 1
    (Engine.transport engine).Transport.overflow_shed;
  let rs = read_responses conn in
  let codes = List.filter_map (field "error" J.to_str) rs in
  Alcotest.(check (list string)) "overloaded" [ "overloaded" ] codes

let test_conn_half_close_truncated () =
  let conn, _, _ = conn_fixture () in
  let f = Frame.encode {|{"op":"query"}|} in
  Conn.on_bytes conn (String.sub f 0 (String.length f - 3));
  Conn.on_eof conn;
  (match read_responses conn with
  | [ j ] ->
      Alcotest.(check (option string)) "truncated" (Some "truncated")
        (field "error" J.to_str j)
  | _ -> Alcotest.fail "expected truncated response");
  Alcotest.(check bool) "drains then closes" true
    (Conn.want_close conn || Conn.is_closed conn)

let test_conn_abort_counts_client_gone () =
  let conn, engine, _ = conn_fixture () in
  Conn.on_bytes conn (Frame.encode {|{"op":"query"}|});
  Conn.abort conn ~reason:"peer reset";
  Alcotest.(check bool) "aborted" true (Conn.aborted conn);
  Alcotest.(check bool) "closed" true (Conn.is_closed conn);
  Alcotest.(check int) "client_gone" 1
    (Engine.transport engine).Transport.client_gone

(* ------------------------------------------------------------------ *)
(* transport counters on the metrics surface                           *)
(* ------------------------------------------------------------------ *)

let test_transport_metrics_exposed () =
  let conn, engine, _ = conn_fixture () in
  Conn.on_bytes conn (Frame.encode {|{"op":"query"}|});
  Conn.on_bytes conn "EVIL";
  let ms = Engine.metrics engine in
  let counter name =
    match Expo.find ms name with
    | Some (Expo.Counter { value; _ }) -> value
    | _ -> Alcotest.failf "metric %s missing" name
  in
  check_float "frames_ok" 1. (counter "serve.transport.frames_ok");
  check_float "frames_rejected" 1. (counter "serve.transport.frames_rejected");
  check_float "conns_opened" 1. (counter "serve.transport.conns_opened");
  Alcotest.(check bool) "bytes_in counted" true
    (counter "serve.transport.bytes_in" > 0.);
  let prom = Expo.to_prometheus ms in
  Alcotest.(check bool) "prometheus exposition" true
    (Astring.String.is_infix ~affix:"serve_transport_frames_ok" prom);
  match Expo.to_json ms with
  | J.Arr entries ->
      Alcotest.(check bool) "JSON exposition" true
        (List.exists
           (fun e ->
             field "name" J.to_str e = Some "serve.transport.frames_ok")
           entries)
  | _ -> Alcotest.fail "metrics JSON exposition should be an array"

(* ------------------------------------------------------------------ *)
(* differential: socket round-trip == in-process Engine.handle         *)
(* ------------------------------------------------------------------ *)

let fresh_engine () =
  let prob = Soak.problem ~seed:5 ~n_vertices:50 ~n_labeled:12 in
  Engine.create
    ~clock:(Clock.monotonic ())
    { Engine.default_config with Engine.deadline_ms = 2_000.; seed = 21 }
    prob

let sock_path = Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "gssl_test_%d.sock" (Unix.getpid ()))

(* single-process client: send a request, pump the server's select
   loop until the response frame lands *)
let socket_call srv fd req =
  let s = Frame.encode (Protocol.render_request req) in
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "request written whole" (String.length s) n;
  let d = Frame.create () in
  let buf = Bytes.create 65536 in
  let result = ref None in
  let turns = ref 0 in
  while !result = None && !turns < 2_000 do
    incr turns;
    Server.step ~timeout_s:0.002 srv;
    (match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Alcotest.fail "server closed the connection"
    | n ->
        List.iter
          (function
            | Ok p -> result := Some (J.parse p)
            | Error e -> Alcotest.failf "client decode: %s" (Frame.error_code e))
          (Frame.feed d (Bytes.sub_string buf 0 n))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
  done;
  match !result with
  | Some j -> j
  | None -> Alcotest.fail "no response within 2000 server turns"

let test_differential_socket_vs_inprocess () =
  let inproc = fresh_engine () in
  let served = fresh_engine () in
  let srv = Server.create ~engine:served (Server.Unix_path sock_path) in
  Fun.protect
    ~finally:(fun () ->
      Server.close srv;
      try Sys.remove sock_path with Sys_error _ -> ())
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX sock_path);
          Unix.set_nonblock fd;
          let next = ref 0 in
          let inproc_call kind =
            incr next;
            Engine.handle inproc
              { Engine.id = !next;
                arrival_ms = Clock.now_ms (Engine.clock inproc);
                kind;
                faults = [] }
          in
          let digest_of r =
            Printf.sprintf "%016Lx"
              (Protocol.predictions_digest r.Engine.predictions)
          in
          (* a clean query must answer with the same bits *)
          let wire = socket_call srv fd Protocol.Query in
          let local = inproc_call Engine.Query in
          Alcotest.(check (option string)) "query: status" (Some "served")
            (field "status" J.to_str wire);
          Alcotest.(check string) "query: served locally" "served"
            (Engine.status_name local.Engine.status);
          Alcotest.(check (option string)) "query: identical pred digest"
            (Some (digest_of local))
            (field "pred_digest" J.to_str wire);
          (* ... and again after the same relabel downdate on each side *)
          let v = 30 and l = 1.0 in
          let wire_r =
            socket_call srv fd (Protocol.Relabel { vertex = v; label = l })
          in
          let local_r = inproc_call (Engine.Relabel { vertex = v; label = l }) in
          Alcotest.(check (option string)) "relabel: identical pred digest"
            (Some (digest_of local_r))
            (field "pred_digest" J.to_str wire_r);
          let wire2 = socket_call srv fd Protocol.Query in
          let local2 = inproc_call Engine.Query in
          Alcotest.(check (option string))
            "post-relabel query: identical pred digest"
            (Some (digest_of local2))
            (field "pred_digest" J.to_str wire2)))

(* ------------------------------------------------------------------ *)
(* hostile soak                                                        *)
(* ------------------------------------------------------------------ *)

let small_soak ?(seed = 42) ?(verify_replay = true) () =
  Hostile.run
    { Hostile.default with
      Hostile.connections = 120;
      seed;
      verify_replay;
      journal = true }

let test_hostile_soak_invariants () =
  let s = small_soak () in
  if s.Hostile.violations <> [] then
    Alcotest.failf "violations:\n  %s"
      (String.concat "\n  " s.Hostile.violations);
  Alcotest.(check int) "all connections ran" 120 s.Hostile.connections;
  Alcotest.(check bool) "clients got answers" true (s.Hostile.responses > 0);
  Alcotest.(check bool) "hostile frames rejected" true
    (s.Hostile.frames_rejected > 0);
  Alcotest.(check bool) "peers vanished and were counted" true
    (s.Hostile.client_gone > 0);
  Alcotest.(check bool) "slowloris expired" true
    (s.Hostile.io_deadline_expired > 0);
  Alcotest.(check bool) "journal written" true (s.Hostile.journal_lines > 0);
  Alcotest.(check bool) "replay digest-identical (incl. journal)" true
    s.Hostile.replay_verified

let test_hostile_soak_seed_sensitive () =
  let a = small_soak ~verify_replay:false () in
  let b = small_soak ~verify_replay:false () in
  let c = small_soak ~seed:43 ~verify_replay:false () in
  Alcotest.(check bool) "same seed, same digest" true
    (Int64.equal a.Hostile.digest b.Hostile.digest);
  Alcotest.(check bool) "same seed, same journal digest" true
    (Int64.equal a.Hostile.journal_digest b.Hostile.journal_digest);
  Alcotest.(check bool) "different seed, different digest" false
    (Int64.equal a.Hostile.digest c.Hostile.digest)

(* Bit-identity pin: the hostile soak's response and journal digests. *)
let test_hostile_soak_pinned_digests () =
  let s = small_soak () in
  Alcotest.(check string) "response digest" "bb6dafe54d6be7ed"
    (Printf.sprintf "%016Lx" s.Hostile.digest);
  Alcotest.(check string) "journal digest" "a137910600c54e3d"
    (Printf.sprintf "%016Lx" s.Hostile.journal_digest)

let suite =
  ( "net",
    [
      case "frame: wire layout and empty payloads" test_frame_layout;
      qprop ~count:60 "frame: encode/decode id under chunking"
        prop_frame_roundtrip_chunked;
      case "frame: adversarial corpus -> typed errors, latched"
        test_frame_adversarial_corpus;
      case "frame: truncation at EOF, payload caps" test_frame_truncation_and_limits;
      qprop ~count:120 "frame: arbitrary garbage never raises" prop_frame_total;
      case "protocol: canonical requests round-trip" test_protocol_parse_ok;
      case "protocol: malformed payloads -> typed errors"
        test_protocol_parse_errors_typed;
      qprop ~count:120 "protocol: arbitrary garbage never raises"
        prop_protocol_total;
      case "conn: query round-trip, counters" test_conn_query_roundtrip;
      case "conn: JSON errors answered, conn survives"
        test_conn_json_errors_recoverable;
      case "conn: framing fault answers then closes"
        test_conn_framing_error_fatal;
      case "conn: slowloris hits the I/O deadline"
        test_conn_io_deadline_slowloris;
      case "conn: unread output sheds with overloaded status"
        test_conn_overflow_sheds;
      case "conn: half-close mid-frame reports truncated"
        test_conn_half_close_truncated;
      case "conn: abort counts client_gone" test_conn_abort_counts_client_gone;
      case "metrics: transport counters on the engine surface"
        test_transport_metrics_exposed;
      case "differential: socket answers == in-process bits"
        test_differential_socket_vs_inprocess;
      case "hostile soak: 120 connections hold every invariant"
        test_hostile_soak_invariants;
      case "hostile soak: digest seeded and replayable"
        test_hostile_soak_seed_sensitive;
      case "hostile soak: pinned response and journal digests"
        test_hostile_soak_pinned_digests;
      case "conn: frame span carries the engine status"
        test_conn_frame_span_status;
    ] )
