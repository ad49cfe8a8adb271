(* Answer checks shared by the serve workloads. *)

type answer = {
  status : string;
  healthy : bool;
  digest : string;
  latency_ms : float;  (** server-reported arrival-to-completion time *)
}

(* A request is answered correctly only when it was served with a healthy
   certificate and the predictions digest the in-process replay expects. *)
let answered_ok ~expected = function
  | Some a -> a.status = "served" && a.healthy && a.digest = expected
  | None -> false

let count_failed ~expected answers =
  let n = ref 0 in
  Array.iteri
    (fun i a -> if not (answered_ok ~expected:expected.(i) a) then incr n)
    answers;
  !n

type server_counts = {
  frames_ok : int;
  served : int;
  not_served : int;  (** degraded + shed *)
  transport_failures : int;
      (** frames_rejected + overflow_shed + io_deadline_expired + client_gone *)
}

(* Reconcile the server's books after a rate step: every frame the client
   sent ([requests] plus the closing stats request) must have been
   accepted, every request must be accounted as served or not, and no
   transport failure may be counted.  Each unit of mismatch is one failed
   operation; requests answered but not served already fail their own
   check, so [not_served] only has to balance the books here. *)
let reconcile ~requests c =
  abs (c.frames_ok - (requests + 1))
  + abs (c.served + c.not_served - requests)
  + c.transport_failures
