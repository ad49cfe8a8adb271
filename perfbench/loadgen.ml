(* The open-loop load generator: one process, one TCP connection, requests
   sent on their Poisson schedule whether or not earlier ones have been
   answered.  Each request is timed from its scheduled send, so a stall
   also charges the requests queued behind it; how late the generator
   itself sent is recorded separately.  One connection keeps the server's
   view of the request order exact. *)

open Perfbench_core

type outcome = {
  sent_s : float array;  (** actual send, seconds after the origin *)
  recv_s : float array;  (** response completed; nan when unanswered *)
  payload : string option array;
  stats : string option;  (** the closing [stats] response *)
  errors : string list;
  origin_s : float;  (** {!Clock.now_s} of the schedule's time zero *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let rec send_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> send_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> send_all fd s off

let frame_of = function
  | Sched.Query -> Net.Protocol.Query
  | Sched.Relabel { vertex; label } -> Net.Protocol.Relabel { vertex; label }

let encode req = Net.Frame.encode (Net.Protocol.render_request req)

(* Read one complete response frame on [fd] within [timeout_s]. *)
let read_one fd dec buf ~timeout_s =
  let t_end = Clock.now_s () +. timeout_s in
  let rec go () =
    let left = t_end -. Clock.now_s () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> None
          | n -> (
              match Net.Frame.feed dec (Bytes.sub_string buf 0 n) with
              | Ok p :: _ -> Some p
              | Error _ :: _ -> None
              | [] -> go ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let run ~port ~(sched : Sched.req array) ~drain_s =
  let n = Array.length sched in
  let frames = Array.map (fun r -> encode (frame_of r.Sched.kind)) sched in
  let fd = connect port in
  let dec = Net.Frame.create () in
  let waiting = Queue.create () in
  let sent_s = Array.make n nan and recv_s = Array.make n nan in
  let payload = Array.make n None in
  let error = ref None in
  let fail why = if !error = None then error := Some why in
  let buf = Bytes.create 65536 in
  let next = ref 0 in
  let origin = Clock.now_s () +. 0.005 in
  let give_up = ref infinity in
  let receive () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> fail "closed by the server"
    | k ->
        let at = Clock.now_s () -. origin in
        List.iter
          (function
            | Ok p -> (
                match Queue.take_opt waiting with
                | Some i ->
                    recv_s.(i) <- at;
                    payload.(i) <- Some p
                | None -> fail "unsolicited response")
            | Error e -> fail (Net.Frame.describe e))
          (Net.Frame.feed dec (Bytes.sub_string buf 0 k))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
  in
  while
    !error = None
    && (!next < n || not (Queue.is_empty waiting))
    && Clock.now_s () < !give_up
  do
    let now = Clock.now_s () -. origin in
    while !error = None && !next < n && sched.(!next).Sched.due_s <= now do
      let i = !next in
      incr next;
      match send_all fd frames.(i) 0 with
      | () ->
          sent_s.(i) <- Clock.now_s () -. origin;
          Queue.push i waiting
      | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
    done;
    if !next >= n && !give_up = infinity then give_up := Clock.now_s () +. drain_s;
    let timeout =
      if !next < n then
        Float.max 0. (sched.(!next).Sched.due_s -. (Clock.now_s () -. origin))
      else 0.05
    in
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> ()
    | _ -> receive ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let unanswered = Array.fold_left (fun a p -> if p = None then a + 1 else a) 0 payload in
  let errors =
    (match !error with Some e -> [ "connection: " ^ e ] | None -> [])
    @ if unanswered > 0 then [ Printf.sprintf "%d request(s) unanswered" unanswered ] else []
  in
  (* the closing stats request reconciles the server's counters *)
  let stats =
    if !error <> None then None
    else
      try
        send_all fd (encode Net.Protocol.Stats) 0;
        read_one fd dec buf ~timeout_s:10.
      with Unix.Unix_error _ -> None
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  { sent_s; recv_s; payload; stats; errors; origin_s = origin }
