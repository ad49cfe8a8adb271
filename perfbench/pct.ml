(* Percentiles, the tail-sample rule, and the interpolated capacity rate. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between order statistics; [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.quantile: no samples";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  let frac = h -. float_of_int lo in
  if frac = 0. then a.(lo) else a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(* Samples strictly beyond the [q] quantile of [n] samples. *)
let beyond ~q n = int_of_float (Float.floor (((1. -. q) *. float_of_int n) +. 1e-9))

(* A percentile is reported only with at least ten samples beyond it;
   otherwise the run is too short for the figure it claims. *)
let checked ~q xs =
  let n = Array.length xs in
  if beyond ~q n < 10 then
    Error
      (Printf.sprintf "p%g needs 10 samples beyond it, %d samples give %d" (q *. 100.) n
         (beyond ~q n))
  else Ok (quantile xs q)

type step = { rate : float; p99 : float; backlog_ok : bool }

(* Highest offered rate whose p99 stays within [limit] with no growing
   backlog.  Scanning the ladder upwards, the first failing rung and the
   passing rung below it bracket the limit; the rate is interpolated
   linearly in p99 between them (a failed request counts at the drain
   horizon, so it pushes p99 up rather than breaking the scan).  A rung
   that fails on backlog alone pins the answer to the rung below.  When
   even the lowest rung fails, its rate is scaled down by limit/p99, so
   the figure never reads 0. *)
let max_rate ~limit steps =
  let steps = List.sort (fun a b -> Float.compare a.rate b.rate) steps in
  let pass s = s.backlog_ok && s.p99 <= limit in
  let rec go prev = function
    | [] -> ( match prev with Some p -> p.rate | None -> 0.)
    | s :: rest when pass s -> go (Some s) rest
    | s :: _ -> (
        match prev with
        | None -> if s.p99 > limit then s.rate *. limit /. s.p99 else s.rate
        | Some p ->
            if s.p99 > limit then
              p.rate +. ((s.rate -. p.rate) *. (limit -. p.p99) /. (s.p99 -. p.p99))
            else p.rate)
  in
  go None steps

(* A rung's backlog grows when the median latency over its last fifth of
   requests already exceeds the limit. *)
let backlog_ok ~limit latencies =
  let n = Array.length latencies in
  let k = max 1 (n / 5) in
  n = 0 || median (Array.sub latencies (n - k) k) <= limit
