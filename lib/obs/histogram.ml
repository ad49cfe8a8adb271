(* Log-bucketed histograms.

   Bucket [i] covers [gamma^i, gamma^{i+1}) with gamma = 2^(1/4), i.e.
   ~19% relative width — plenty for latency percentiles — while keeping
   the bucket table tiny (a sparse Hashtbl keyed by bucket index, so the
   value range costs nothing).  Non-positive values (clamped span
   durations) land in a dedicated zero bucket. *)

let gamma = 2. ** 0.25
let log_gamma = log gamma

type t = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable zeros : int;
  buckets : (int, int ref) Hashtbl.t;
}

let create () =
  {
    count = 0;
    sum = 0.;
    min_v = Float.infinity;
    max_v = Float.neg_infinity;
    zeros = 0;
    buckets = Hashtbl.create 16;
  }

let bucket_of v = int_of_float (Float.floor (log v /. log_gamma))

let add t v =
  if Float.is_finite v then begin
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    if v <= 0. then t.zeros <- t.zeros + 1
    else
      let i = bucket_of v in
      match Hashtbl.find_opt t.buckets i with
      | Some r -> incr r
      | None -> Hashtbl.add t.buckets i (ref 1)
  end

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then Float.nan else t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then Float.nan else t.min_v
let max_value t = if t.count = 0 then Float.nan else t.max_v

(* Percentile by walking buckets in index order.  The returned value is
   rank-interpolated inside the selected bucket: the bucket's span is
   first clamped to the observed [min, max] (so a bucket holding every
   observation of a single value reports that value exactly, not a
   geometric midpoint or the bucket's upper bound), then the target
   rank's position among the bucket's k observations picks a point on
   that span.  An empty histogram reports the nan sentinel. *)
let percentile t p =
  if t.count = 0 then Float.nan
  else if p <= 0. then min_value t
  else if p >= 100. then max_value t
  else begin
    let target =
      Stdlib.max 1
        (int_of_float (Float.ceil (p /. 100. *. float_of_int t.count)))
    in
    if target <= t.zeros then Stdlib.min 0. t.min_v
    else begin
      let sorted =
        Hashtbl.fold (fun i r acc -> (i, !r) :: acc) t.buckets []
        |> List.sort compare
      in
      let rec walk cum = function
        | [] -> t.max_v
        | (i, k) :: rest ->
            if cum + k >= target then begin
              let lo = Float.max t.min_v (gamma ** float_of_int i) in
              let hi = Float.min t.max_v (gamma ** float_of_int (i + 1)) in
              let frac =
                if k = 1 then 0.5
                else float_of_int (target - cum - 1) /. float_of_int (k - 1)
              in
              lo +. (frac *. (hi -. lo))
            end
            else walk (cum + k) rest
      in
      walk t.zeros sorted
    end
  end

let p50 t = percentile t 50.
let p90 t = percentile t 90.
let p99 t = percentile t 99.

(* ---------------- global named histograms ---------------- *)

(* Shared across domains (CG solves on sweep workers record
   [cg.iterations]), so every access to the table and to the histograms
   in it holds [table_lock]; readers get copies. *)
let table : (string, t) Hashtbl.t = Hashtbl.create 16
let table_lock = Mutex.create ()
let locked f = Mutex.protect table_lock f

let () =
  Telemetry.Registry.on_reset (fun () -> locked (fun () -> Hashtbl.reset table))

let copy h =
  let buckets = Hashtbl.create (Hashtbl.length h.buckets) in
  Hashtbl.iter (fun i r -> Hashtbl.replace buckets i (ref !r)) h.buckets;
  { h with buckets }

let observe name v =
  if !Telemetry.Registry.enabled then
    locked (fun () ->
        let h =
          match Hashtbl.find_opt table name with
          | Some h -> h
          | None ->
              let h = create () in
              Hashtbl.add table name h;
              h
        in
        add h v)

let find name = locked (fun () -> Option.map copy (Hashtbl.find_opt table name))

let snapshot () =
  locked (fun () ->
      Hashtbl.fold (fun name h acc -> (name, copy h) :: acc) table [])
  |> List.sort compare

(* Span latencies: one histogram per span path, values in milliseconds.
   The listener is installed once and is itself gated by the capture
   flag of [observe] (enabled registry), so attaching is idempotent and
   free when telemetry is off. *)
let attached = ref false

let attach_to_spans () =
  if not !attached then begin
    attached := true;
    Telemetry.Span.on_complete (fun path _start_ns dur_ns ->
        observe path (dur_ns /. 1e6))
  end

let quantiles_json () =
  Telemetry.Export.Obj
    (List.map
       (fun (name, h) ->
         ( name,
           Telemetry.Export.Obj
             [
               ("count", Telemetry.Export.Num (float_of_int h.count));
               ("p50", Telemetry.Export.Num (p50 h));
               ("p90", Telemetry.Export.Num (p90 h));
               ("p99", Telemetry.Export.Num (p99 h));
               ("max", Telemetry.Export.Num (max_value h));
             ] ))
       (snapshot ()))

let to_text () =
  match snapshot () with
  | [] -> ""
  | hs ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        "histograms (count | p50 | p90 | p99 | max, span values in ms):\n";
      List.iter
        (fun (name, h) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-36s %6d | %9.3f | %9.3f | %9.3f | %9.3f\n"
               name h.count (p50 h) (p90 h) (p99 h) (max_value h)))
        hs;
      Buffer.contents buf
