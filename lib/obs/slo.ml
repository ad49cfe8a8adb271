(* Rolling-window SLO tracker.

   Two objectives over served traffic:
     latency  — fraction of responses answered within
                [latency_threshold_ms] must stay >= [latency_target];
     quality  — fraction of responses answered at full fidelity
                (served with a healthy certificate, neither degraded
                 nor shed) must stay >= [quality_target].

   Each observation lands in a fixed-size ring buffer (the rolling
   window) and in cumulative totals.  Burn rate is the standard SRE
   ratio: window error rate divided by the error budget the target
   allows (1 - target).  Burn 1.0 means the window is consuming budget
   exactly as fast as the objective grants it; > 1 means the budget is
   shrinking.  Budget remaining is cumulative:
   1 - cumulative_errors / (allowed_error_rate * total), clamped to
   [0, 1] — the fraction of the whole run's error allowance unspent. *)

type config = {
  window : int;  (* observations in the rolling window *)
  latency_threshold_ms : float;
  latency_target : float;  (* e.g. 0.9 = 90% under threshold *)
  quality_target : float;  (* e.g. 0.7 = 70% full-fidelity *)
}

let default =
  {
    window = 256;
    latency_threshold_ms = 25.;
    latency_target = 0.9;
    quality_target = 0.6;
  }

type t = {
  config : config;
  (* ring cells: bit 0 = latency ok, bit 1 = quality ok *)
  ring : int array;
  mutable next : int;  (* next write position *)
  mutable window_n : int;  (* live cells, <= window *)
  mutable window_latency_ok : int;
  mutable window_quality_ok : int;
  mutable total : int;
  mutable total_latency_ok : int;
  mutable total_quality_ok : int;
}

let create ?(config = default) () =
  if config.window <= 0 then invalid_arg "Slo.create: window must be positive";
  {
    config;
    ring = Array.make config.window 0;
    next = 0;
    window_n = 0;
    window_latency_ok = 0;
    window_quality_ok = 0;
    total = 0;
    total_latency_ok = 0;
    total_quality_ok = 0;
  }

let config t = t.config

let observe t ~latency_ms ~good_quality =
  let latency_ok = latency_ms <= t.config.latency_threshold_ms in
  let cell = (if latency_ok then 1 else 0) lor (if good_quality then 2 else 0) in
  if t.window_n = t.config.window then begin
    (* evict the oldest cell *)
    let old = t.ring.(t.next) in
    if old land 1 <> 0 then t.window_latency_ok <- t.window_latency_ok - 1;
    if old land 2 <> 0 then t.window_quality_ok <- t.window_quality_ok - 1
  end
  else t.window_n <- t.window_n + 1;
  t.ring.(t.next) <- cell;
  t.next <- (t.next + 1) mod t.config.window;
  if latency_ok then begin
    t.window_latency_ok <- t.window_latency_ok + 1;
    t.total_latency_ok <- t.total_latency_ok + 1
  end;
  if good_quality then begin
    t.window_quality_ok <- t.window_quality_ok + 1;
    t.total_quality_ok <- t.total_quality_ok + 1
  end;
  t.total <- t.total + 1

type snapshot = {
  total : int;
  window_n : int;
  latency_good : int;  (* cumulative *)
  quality_good : int;  (* cumulative *)
  latency_compliance : float;  (* window fraction; 1. when empty *)
  quality_compliance : float;
  latency_burn : float;  (* window error rate / allowed error rate *)
  quality_burn : float;
  latency_budget : float;  (* cumulative budget remaining in [0,1] *)
  quality_budget : float;
}

let compliance ok n = if n = 0 then 1. else float_of_int ok /. float_of_int n

let burn ~target ~ok ~n =
  let allowed = 1. -. target in
  if n = 0 then 0.
  else
    let err = 1. -. compliance ok n in
    if allowed <= 0. then if err > 0. then infinity else 0.
    else err /. allowed

let budget ~target ~ok ~n =
  let allowed = 1. -. target in
  if n = 0 then 1.
  else
    let errors = float_of_int (n - ok) in
    if allowed <= 0. then if errors > 0. then 0. else 1.
    else
      Float.max 0. (Float.min 1. (1. -. (errors /. (allowed *. float_of_int n))))

let snapshot (t : t) =
  {
    total = t.total;
    window_n = t.window_n;
    latency_good = t.total_latency_ok;
    quality_good = t.total_quality_ok;
    latency_compliance = compliance t.window_latency_ok t.window_n;
    quality_compliance = compliance t.window_quality_ok t.window_n;
    latency_burn =
      burn ~target:t.config.latency_target ~ok:t.window_latency_ok
        ~n:t.window_n;
    quality_burn =
      burn ~target:t.config.quality_target ~ok:t.window_quality_ok
        ~n:t.window_n;
    latency_budget =
      budget ~target:t.config.latency_target ~ok:t.total_latency_ok ~n:t.total;
    quality_budget =
      budget ~target:t.config.quality_target ~ok:t.total_quality_ok ~n:t.total;
  }
