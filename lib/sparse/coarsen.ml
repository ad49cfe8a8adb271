module Vec = Linalg.Vec

(* Heavy-edge-matching graph coarsening.

   Every level stores the operator A = diag(diag) − W in the same
   (off-diagonal weights, diagonal vector) form [Csr.lap_mv] consumes,
   so the whole hierarchy is applied without ever assembling a
   Laplacian.  The transfer operators are piecewise-constant
   aggregation: P(i, c) = 1 when fine vertex i belongs to aggregate c,
   restriction is Pᵀ, and the coarse operator is the Galerkin product
   PᵀAP — computed directly in (W, diag) form:

     W_c(c, c')  = Σ  w_ij   over cross pairs  i ∈ c, j ∈ c'
     diag_c(c)   = Σ diag_i  −  2 · Σ w_uv     over intra pairs u, v ∈ c

   which conserves the total mass 1ᵀA1 exactly at every level. *)

let c_levels = Telemetry.Counter.make "sparse.coarsen.levels"
let c_matched = Telemetry.Counter.make "sparse.coarsen.matched_pairs"

type graph = { w : Csr.t; diag : Vec.t }

type t = {
  graphs : graph array;  (* finest first *)
  maps : int array array;  (* maps.(l) : level l vertex -> level l+1 aggregate *)
}

(* Greedy heavy-edge matching in ascending vertex order: each unmatched
   vertex pairs with its heaviest unmatched neighbour (first-seen, i.e.
   smallest index, on exact weight ties).  Deterministic by
   construction. *)
let heavy_edge_matching (w : Csr.t) n =
  let mate = Array.make n (-1) in
  for i = 0 to n - 1 do
    if mate.(i) < 0 then begin
      let best = ref (-1) and best_w = ref 0. in
      for k = w.row_ptr.(i) to w.row_ptr.(i + 1) - 1 do
        let j = w.col_idx.(k) and wij = w.values.(k) in
        if j <> i && mate.(j) < 0 && wij > !best_w then begin
          best := j;
          best_w := wij
        end
      done;
      if !best >= 0 then begin
        mate.(i) <- !best;
        mate.(!best) <- i
      end
    end
  done;
  mate

(* Aggregates larger than this stop adopting singletons: hub-shaped
   graphs would otherwise collapse whole stars into one aggregate,
   which coarsens fast but destroys the coarse operator's locality. *)
let max_aggregate = 8

(* [cols] and [vals] are scratch for the coarse rows, at least nnz W
   long: a coarse entry needs at least one fine entry.  One pair serves
   every level, since no level holds more entries than the finest. *)
let coarsen_once ~cols ~vals { w; diag } =
  let n = Array.length diag in
  let mate = heavy_edge_matching w n in
  let cmap = Array.make n (-1) in
  let next = ref 0 in
  let matched = ref 0 in
  (* pair aggregates first, ids in ascending order of the lower mate *)
  for i = 0 to n - 1 do
    if cmap.(i) < 0 && mate.(i) >= 0 then begin
      cmap.(i) <- !next;
      cmap.(mate.(i)) <- !next;
      incr matched;
      incr next
    end
  done;
  let pairs = !next in
  (* Aggregation rescue.  The unmatched vertices form an independent
     set (greedy matching is maximal), which on hub-dominated coarse
     graphs is most of the level — pure pair matching then stagnates
     far above the coarse cutoff.  Every neighbour of an unmatched
     vertex is matched, so each singleton can join its heaviest
     neighbour's pair aggregate instead (bounded by [max_aggregate]);
     the Galerkin product below is already written for arbitrary
     aggregate sizes, so symmetry, PSD-ness, zero row sums, and the
     total mass are conserved exactly as for pairs. *)
  let size = Array.make (Stdlib.max 1 pairs) 2 in
  for i = 0 to n - 1 do
    if cmap.(i) < 0 then begin
      let best = ref (-1) and best_w = ref 0. in
      for k = w.row_ptr.(i) to w.row_ptr.(i + 1) - 1 do
        let j = w.col_idx.(k) and wij = w.values.(k) in
        if j <> i && wij > !best_w then begin
          let cj = cmap.(j) in
          if cj >= 0 && size.(cj) < max_aggregate then begin
            best := cj;
            best_w := wij
          end
        end
      done;
      if !best >= 0 then begin
        cmap.(i) <- !best;
        size.(!best) <- size.(!best) + 1
      end
    end
  done;
  (* leftovers (isolated vertices, or all candidate aggregates full)
     stay as singleton aggregates *)
  for i = 0 to n - 1 do
    if cmap.(i) < 0 then begin
      cmap.(i) <- !next;
      incr next
    end
  done;
  let nc = !next in
  Telemetry.Counter.add c_matched !matched;
  let cdiag = Vec.zeros nc in
  for i = 0 to n - 1 do
    cdiag.(cmap.(i)) <- cdiag.(cmap.(i)) +. diag.(i)
  done;
  (* aggregate members in ascending vertex order: a counting sort of cmap *)
  let start = Array.make (nc + 1) 0 in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) cmap;
  for c = 0 to nc - 1 do
    start.(c + 1) <- start.(c + 1) + start.(c)
  done;
  let members = Array.make n 0 in
  let fill = Array.sub start 0 nc in
  Array.iteri
    (fun i c ->
      members.(fill.(c)) <- i;
      fill.(c) <- fill.(c) + 1)
    cmap;
  (* Coarse row c sums w_ij over its members i and their neighbours j in
     other aggregates, reading both triangles of the symmetric W.
     pos.(c') is where column c' sits while row c is built; a position
     below the row's start is left over from an earlier row. *)
  let row_ptr = Array.make (nc + 1) 0 in
  let pos = Array.make nc (-1) in
  let len = ref 0 in
  for c = 0 to nc - 1 do
    let lo = !len in
    row_ptr.(c) <- lo;
    for m = start.(c) to start.(c + 1) - 1 do
      let i = members.(m) in
      for k = w.row_ptr.(i) to w.row_ptr.(i + 1) - 1 do
        let j = w.col_idx.(k) and wij = w.values.(k) in
        let cj = cmap.(j) in
        if cj = c then begin
          (* intra-aggregate edge, once per pair: absorbed into the
             diagonal *)
          if j > i then cdiag.(c) <- cdiag.(c) -. (2. *. wij)
        end
        else if wij <> 0. then begin
          let p = pos.(cj) in
          if p >= lo then vals.(p) <- vals.(p) +. wij
          else begin
            pos.(cj) <- !len;
            cols.(!len) <- cj;
            vals.(!len) <- wij;
            incr len
          end
        end
      done
    done;
    (* insertion sort: a coarse row of a kNN hierarchy holds tens of
       entries (about 11–32 on average per level at 10⁵ points) *)
    for k = lo + 1 to !len - 1 do
      let cc = cols.(k) and v = vals.(k) in
      let q = ref (k - 1) in
      while !q >= lo && cols.(!q) > cc do
        cols.(!q + 1) <- cols.(!q);
        vals.(!q + 1) <- vals.(!q);
        decr q
      done;
      cols.(!q + 1) <- cc;
      vals.(!q + 1) <- v
    done
  done;
  row_ptr.(nc) <- !len;
  let wc =
    Csr.of_sorted_rows ~rows:nc ~cols:nc ~row_ptr
      ~col_idx:(Array.sub cols 0 !len) ~values:(Array.sub vals 0 !len)
  in
  ({ w = wc; diag = cdiag }, cmap, nc)

let build ?(coarse_cutoff = 64) ?(max_levels = 25) ?(min_shrink = 0.95) ~w
    ~diag () =
  let rows, cols = Csr.dims w in
  let n = Array.length diag in
  if rows <> cols then invalid_arg "Coarsen.build: W must be square";
  if rows <> n then invalid_arg "Coarsen.build: diag length mismatch";
  if coarse_cutoff < 1 then invalid_arg "Coarsen.build: coarse_cutoff >= 1";
  if max_levels < 1 then invalid_arg "Coarsen.build: max_levels >= 1";
  if min_shrink <= 0. || min_shrink > 1. then
    invalid_arg "Coarsen.build: min_shrink in (0, 1]";
  Telemetry.Span.with_ "coarsen.build" (fun () ->
      let graphs = ref [ { w; diag } ] in
      let maps = ref [] in
      let scratch =
        lazy (Array.make (Csr.nnz w) 0, Array.make (Csr.nnz w) 0.)
      in
      let continue = ref true in
      while !continue do
        let g = List.hd !graphs in
        let cur_n = Array.length g.diag in
        if cur_n <= coarse_cutoff || List.length !graphs >= max_levels then
          continue := false
        else begin
          let cols, vals = Lazy.force scratch in
          let gc, cmap, nc = coarsen_once ~cols ~vals g in
          (* stagnation guard: a matching that barely shrinks the graph
             (edge-free or near-edge-free level) cannot make progress *)
          if float_of_int nc > min_shrink *. float_of_int cur_n then
            continue := false
          else begin
            graphs := gc :: !graphs;
            maps := cmap :: !maps
          end
        end
      done;
      let t =
        {
          graphs = Array.of_list (List.rev !graphs);
          maps = Array.of_list (List.rev !maps);
        }
      in
      Telemetry.Counter.add c_levels (Array.length t.graphs);
      t)

let depth t = Array.length t.graphs

let level t l =
  if l < 0 || l >= Array.length t.graphs then
    invalid_arg "Coarsen.level: out of range";
  let g = t.graphs.(l) in
  (g.w, g.diag)

let level_size t l =
  if l < 0 || l >= Array.length t.graphs then
    invalid_arg "Coarsen.level_size: out of range";
  Array.length t.graphs.(l).diag

let map_at t l =
  if l < 0 || l >= Array.length t.maps then
    invalid_arg "Coarsen.map_at: out of range";
  t.maps.(l)

let apply t l x =
  let g = t.graphs.(l) in
  Csr.lap_mv g.w ~deg:g.diag x

let restrict t l x =
  if l < 0 || l >= Array.length t.maps then
    invalid_arg "Coarsen.restrict: out of range";
  let cmap = t.maps.(l) in
  if Array.length x <> Array.length cmap then
    invalid_arg "Coarsen.restrict: length mismatch";
  let out = Vec.zeros (Array.length t.graphs.(l + 1).diag) in
  Array.iteri (fun i c -> out.(c) <- out.(c) +. x.(i)) cmap;
  out

let prolong t l xc =
  if l < 0 || l >= Array.length t.maps then
    invalid_arg "Coarsen.prolong: out of range";
  let cmap = t.maps.(l) in
  if Array.length xc <> Array.length t.graphs.(l + 1).diag then
    invalid_arg "Coarsen.prolong: length mismatch";
  Array.map (fun c -> xc.(c)) cmap
