module Vec = Linalg.Vec
module Rng = Prng.Rng

(* Approximate k-nearest-neighbours via a small forest of randomized
   projection trees with multi-probe search.

   Determinism contract: tree [t] draws from its own seeded substream,
   consumed in DFS order, and owns its projection buffer and leaf
   count, so building the trees on the domain pool gives the same
   forest for any domain count.  Each query depends only on the forest
   and its own point, so fanning queries out over the pool is
   bit-identical too, like every other pooled kernel.  The recall knob
   is enforced by measurement: the search budget is escalated (doubled)
   until a sampled recall probe meets the target; once the budget
   covers every leaf the search degenerates to exhaustive, so the
   target is always reachable.

   Both orders the index relies on — (projection, index) for the median
   split and (distance², index) for the neighbour ranking — are strict
   total orders under [key_lt], so every selection below returns the
   same result a full sort would, whatever order the keys arrive in. *)

let c_builds = Telemetry.Counter.make "graph.ann.builds"
let c_queries = Telemetry.Counter.make "graph.ann.queries"
let c_candidates = Telemetry.Counter.make "graph.ann.candidates"
let c_escalations = Telemetry.Counter.make "graph.ann.escalations"
let c_exact_fallbacks = Telemetry.Counter.make "graph.ann.exact_fallbacks"

type node =
  | Leaf of int array * int * int
      (* the tree's permutation of positions in [coords], and this
         leaf's offset and length in it *)
  | Split of { dir : Vec.t; thr : float; left : node; right : node }

type t = {
  points : Vec.t array;
  coords : float array;
      (* [points] flattened row-major in the first tree's leaf order:
         position p holds point [order.(p)], so the points of a leaf,
         and of neighbouring leaves, sit together in memory *)
  order : int array;
  dim : int;
  forest : node array;  (* tree roots *)
  leaf_size : int;
  total_leaves : int;
}

type info = {
  exact : bool;
  trees : int;
  probes : int;
  escalations : int;
  recall : float;
}

let validate points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Ann: empty data";
  let d = Array.length points.(0) in
  Array.iter
    (fun p -> if Array.length p <> d then invalid_arg "Ann: ragged data")
    points;
  (n, d)

let flatten points d =
  let coords = Array.make (Array.length points * d) 0. in
  Array.iteri (fun j p -> Array.blit p 0 coords (j * d) d) points;
  coords

(* (value, index) strictly before (value', index'); [Float.compare]
   keeps the order total even for NaN values *)
let[@inline] key_lt (v : float) (i : int) v' i' =
  let c = Float.compare v v' in
  c < 0 || (c = 0 && i < i')

(* random unit direction: gaussian components (Box–Muller), normalized;
   a degenerate all-zero draw falls back to the first axis *)
let gaussian_direction rng d =
  let dir = Array.init d (fun _ ->
      let u1 = 1. -. Rng.float rng in
      let u2 = Rng.float rng in
      sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))
  in
  let norm = Vec.norm2 dir in
  if norm > 0. then Array.map (fun x -> x /. norm) dir
  else Array.init d (fun i -> if i = 0 then 1. else 0.)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* Sort [lo, hi] of the parallel arrays [proj]/[idx] by [key_lt]. *)
let sort_range proj (idx : int array) lo hi =
  let len = hi - lo + 1 in
  let perm = Array.init len (fun t -> lo + t) in
  Array.sort
    (fun a b ->
      let c = Float.compare proj.(a) proj.(b) in
      if c <> 0 then c else compare idx.(a) idx.(b))
    perm;
  let p = Array.map (fun t -> proj.(t)) perm in
  let x = Array.map (fun t -> idx.(t)) perm in
  Array.blit p 0 proj lo len;
  Array.blit x 0 idx lo len

(* Rearrange [lo, hi] of [proj]/[idx] in place so position [k] holds the
   key of its rank, smaller keys before it and larger ones after
   (Hoare's FIND with a median-of-three pivot): O(len) expected.  Past
   log₂ len partition rounds it sorts what is left instead, so no input
   can make it quadratic.  On random projections the limit is reached
   only once a handful of keys remain (about five on average at
   n = 10⁵), so the fallback is cheap and runs on every build. *)
let select proj idx lo hi k =
  let swap a b =
    let p = proj.(a) and x = idx.(a) in
    proj.(a) <- proj.(b);
    idx.(a) <- idx.(b);
    proj.(b) <- p;
    idx.(b) <- x
  in
  let lt a b = key_lt proj.(a) idx.(a) proj.(b) idx.(b) in
  let lo = ref lo and hi = ref hi in
  let rounds = ref (log2 (!hi - !lo + 1)) in
  while !lo < !hi do
    if !rounds = 0 then begin
      sort_range proj idx !lo !hi;
      lo := !hi
    end
    else begin
      decr rounds;
      let m = !lo + ((!hi - !lo) / 2) in
      if lt m !lo then swap m !lo;
      if lt !hi !lo then swap !hi !lo;
      if lt !hi m then swap !hi m;
      let pv = proj.(m) and pi = idx.(m) in
      let i = ref !lo and j = ref !hi in
      while !i <= !j do
        while key_lt proj.(!i) idx.(!i) pv pi do incr i done;
        while key_lt pv pi proj.(!j) idx.(!j) do decr j done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      if !j < k then lo := !i;
      if k < !i then hi := !j
    end
  done

(* Split the segment [off, off+len) of [idx] at its positional median
   along a random direction, under the (projection, point index) order
   so exact projection ties cannot make the layout depend on the
   selection's internals.  [proj] is one buffer per tree; each node
   overwrites its own segment of it.  [coords] is in input order. *)
let rec build_node rng coords dim idx proj off len leaf_size leaves =
  if len <= leaf_size then begin
    incr leaves;
    Leaf (idx, off, len)
  end
  else begin
    let dir = gaussian_direction rng dim in
    (* Vec.dot's operation order, written out so no float is boxed *)
    for t = off to off + len - 1 do
      let base = idx.(t) * dim in
      let acc = ref 0. in
      for c = 0 to dim - 1 do
        acc := !acc +. (coords.(base + c) *. dir.(c))
      done;
      proj.(t) <- !acc
    done;
    let half = len / 2 in
    let mid = off + half in
    select proj idx off (off + len - 1) mid;
    (* rank mid-1 is the largest key of the lower half *)
    let below = ref off in
    for t = off + 1 to mid - 1 do
      if key_lt proj.(!below) idx.(!below) proj.(t) idx.(t) then below := t
    done;
    let thr = 0.5 *. (proj.(!below) +. proj.(mid)) in
    let left = build_node rng coords dim idx proj off half leaf_size leaves in
    let right =
      build_node rng coords dim idx proj mid (len - half) leaf_size leaves
    in
    Split { dir; thr; left; right }
  end

let build ?(seed = 0x5eed) ?(trees = 3) ?(leaf_size = 24) points =
  if trees < 1 then invalid_arg "Ann.build: trees must be >= 1";
  if leaf_size < 1 then invalid_arg "Ann.build: leaf_size must be >= 1";
  let n, dim = validate points in
  Telemetry.Span.with_ "ann.build" (fun () ->
      Telemetry.Counter.incr c_builds;
      let rng = Rng.create seed in
      let flat = flatten points dim in
      let forest = Array.make trees (Leaf ([||], 0, 0)) in
      let perms = Array.make trees [||] and leaves = Array.make trees 0 in
      (* one tree a row: each reads only [flat] and its own substream *)
      Parallel.Dispatch.run Parallel.Dispatch.Pairwise ~work:(trees * n) trees
        (fun lo hi ->
          for t = lo to hi - 1 do
            let idx = Array.init n Fun.id and count = ref 0 in
            forest.(t) <-
              build_node (Rng.substream rng t) flat dim idx (Array.make n 0.)
                0 n leaf_size count;
            perms.(t) <- idx;
            leaves.(t) <- !count
          done);
      (* lay the coordinates out in the first tree's leaf order and turn
         every tree's permutation into positions in that copy *)
      let order = Array.copy perms.(0) in
      let pos = Array.make n 0 in
      Array.iteri (fun p i -> pos.(i) <- p) order;
      let coords = Array.make (n * dim) 0. in
      Array.iteri
        (fun p i -> Array.blit flat (i * dim) coords (p * dim) dim)
        order;
      Array.iter
        (fun idx -> Array.iteri (fun p i -> idx.(p) <- pos.(i)) idx)
        perms;
      {
        points;
        coords;
        order;
        dim;
        forest;
        leaf_size;
        total_leaves = Array.fold_left ( + ) 0 leaves;
      })

(* ---- the k best (distance², index) keys ------------------------- *)

(* A bounded binary max-heap under [key_lt]: the root is the worst key
   kept, so a candidate is admitted only when it beats the root (or the
   heap is not yet full).  A point offered twice (it sat in leaves of
   two trees) has the same key both times, so it is either still in the
   heap — the membership scan turns it away — or already beaten by the
   root.  [d2]/[id] hold the heap in [0, size) plus one staging slot at
   index k: a key moves between functions through the arrays, never as
   a boxed float argument, so offering allocates nothing. *)
module Best = struct
  type t = { d2 : float array; id : int array; mutable size : int }

  let create k =
    { d2 = Array.make (k + 1) 0.; id = Array.make (k + 1) 0; size = 0 }

  let clear b = b.size <- 0
  let capacity b = Array.length b.id - 1
  let full b = b.size = capacity b

  let mem b j =
    let t = ref 0 in
    while !t < b.size && b.id.(!t) <> j do incr t done;
    !t < b.size

  (* fill the hole at the root with the entry at slot [src], outside
     the heap, sifting it down *)
  let sift_down b src =
    let d = b.d2.(src) and j = b.id.(src) in
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= b.size then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < b.size && key_lt b.d2.(l) b.id.(l) b.d2.(r) b.id.(r) then r
          else l
        in
        if key_lt d j b.d2.(c) b.id.(c) then begin
          b.d2.(!i) <- b.d2.(c);
          b.id.(!i) <- b.id.(c);
          i := c
        end
        else moving := false
      end
    done;
    b.d2.(!i) <- d;
    b.id.(!i) <- j

  (* Offer point [j], stored at position [x] of the flat [coords], at
     its squared distance from [q], computed in [Vec.dist2_sq]'s
     operation order so the keys are bit-identical to it. *)
  let offer b coords dim q x j =
    let base = x * dim in
    let acc = ref 0. in
    for c = 0 to dim - 1 do
      let dx = coords.(base + c) -. q.(c) in
      acc := !acc +. (dx *. dx)
    done;
    let d = !acc in
    if not (full b) then begin
      if not (mem b j) then begin
        let i = ref b.size in
        b.size <- b.size + 1;
        while
          !i > 0
          &&
          let p = (!i - 1) / 2 in
          key_lt b.d2.(p) b.id.(p) d j
        do
          let p = (!i - 1) / 2 in
          b.d2.(!i) <- b.d2.(p);
          b.id.(!i) <- b.id.(p);
          i := p
        done;
        b.d2.(!i) <- d;
        b.id.(!i) <- j
      end
    end
    else if key_lt d j b.d2.(0) b.id.(0) && not (mem b j) then begin
      let k = capacity b in
      b.d2.(k) <- d;
      b.id.(k) <- j;
      sift_down b k
    end

  (* the kept indices in ascending (distance², index) order; empties
     the heap *)
  let drain b =
    let out = Array.make b.size 0 in
    for t = b.size - 1 downto 0 do
      out.(t) <- b.id.(0);
      b.size <- t;
      if t > 0 then sift_down b t
    done;
    out
end

(* exact k-nearest of [q] over every point but [exclude], under the
   same (distance², index) order the approximate path uses, so recall
   comparisons are unambiguous even with tied distances; position [x]
   of [coords] holds point [order.(x)] *)
let exact_k_nearest best coords order dim q ~exclude =
  Best.clear best;
  for x = 0 to Array.length order - 1 do
    let j = order.(x) in
    if j <> exclude then Best.offer best coords dim q x j
  done;
  Best.drain best

(* the exact lists of the points [queries], each excluding itself, one
   query a pool row under the pairwise rule (work: queries × n): every
   point on the small-n path, the probe sample on the tree path *)
let exact_rows coords order dim points k queries =
  let m = Array.length queries in
  let out = Array.make m [||] in
  Parallel.Dispatch.run Parallel.Dispatch.Pairwise
    ~work:(m * Array.length order) m (fun lo hi ->
      let best = Best.create k in
      for s = lo to hi - 1 do
        let i = queries.(s) in
        out.(s) <- exact_k_nearest best coords order dim points.(i) ~exclude:i
      done);
  out

(* ---- multi-probe search ---------------------------------------- *)

(* tiny binary min-heap keyed by split margin, over parallel arrays;
   payloads are nodes awaiting descent *)
module Pq = struct
  type t = {
    mutable keys : float array;
    mutable data : node array;
    mutable size : int;
  }

  let dummy = Leaf ([||], 0, 0)
  let create () =
    { keys = Array.make 16 0.; data = Array.make 16 dummy; size = 0 }

  (* the free slot, grown if needed: the caller stores the new entry's
     key there and then calls [push], so no key is boxed *)
  let slot q =
    if q.size = Array.length q.keys then begin
      q.keys <- Array.append q.keys (Array.make q.size 0.);
      q.data <- Array.append q.data (Array.make q.size dummy)
    end;
    q.size

  let push q v =
    let k = q.keys.(q.size) in
    let i = ref q.size in
    q.size <- q.size + 1;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      q.keys.(p) > k
    do
      let p = (!i - 1) / 2 in
      q.keys.(!i) <- q.keys.(p);
      q.data.(!i) <- q.data.(p);
      i := p
    done;
    q.keys.(!i) <- k;
    q.data.(!i) <- v

  (* remove the root; the caller has read it *)
  let drop_min q =
    q.size <- q.size - 1;
    let k = q.keys.(q.size) and v = q.data.(q.size) in
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m =
        let m = if l < q.size && q.keys.(l) < k then l else !i in
        if r < q.size && q.keys.(r) < (if m = !i then k else q.keys.(m)) then r
        else m
      in
      if m = !i then moving := false
      else begin
        q.keys.(!i) <- q.keys.(m);
        q.data.(!i) <- q.data.(m);
        i := m
      end
    done;
    q.keys.(!i) <- k;
    q.data.(!i) <- v
end

(* per-chunk search state, reused query after query *)
type scratch = { pq : Pq.t; best : Best.t }

let scratch k = { pq = Pq.create (); best = Best.create k }

(* Offer the points of every visited leaf straight into [s.best]: seed
   the queue with every tree root at margin 0, descend each popped node
   to a leaf — pushing the far child of every split, keyed by the
   query's distance to the splitting hyperplane — and stop after
   [budget] leaf visits.  When [budget] covers [total_leaves] every
   point is offered, which is the exhaustive limit the escalation loop
   relies on.  Returns the number of candidates offered, duplicates
   across trees included. *)
let search index s q ~exclude ~budget =
  let pq = s.pq and best = s.best in
  pq.size <- 0;
  Best.clear best;
  for t = 0 to Array.length index.forest - 1 do
    pq.keys.(Pq.slot pq) <- 0.;
    Pq.push pq index.forest.(t)
  done;
  let visited = ref 0 and ncand = ref 0 in
  while !visited < budget && pq.size > 0 do
    let node = ref pq.data.(0) in
    Pq.drop_min pq;
    let descending = ref true in
    while !descending do
      match !node with
      | Leaf (pos, off, len) ->
          incr visited;
          ncand := !ncand + len;
          for p = off to off + len - 1 do
            let x = pos.(p) in
            let j = index.order.(x) in
            if j <> exclude then Best.offer best index.coords index.dim q x j
          done;
          descending := false
      | Split { dir; thr; left; right } ->
          let acc = ref 0. in
          for c = 0 to index.dim - 1 do
            acc := !acc +. (q.(c) *. dir.(c))
          done;
          let margin = !acc -. thr in
          pq.keys.(Pq.slot pq) <- abs_float margin;
          if margin < 0. then begin
            Pq.push pq right;
            node := left
          end
          else begin
            Pq.push pq left;
            node := right
          end
    done
  done;
  !ncand

(* The [k] nearest of [q] (k = the heap's capacity) under (distance²,
   index), from the probed leaves — or exactly, when they hold fewer
   than [k] distinct candidates (tiny budget / heavy duplicate overlap
   between trees). *)
let knn_search index s q ~exclude ~budget =
  Telemetry.Counter.incr c_queries;
  Telemetry.Counter.add c_candidates (search index s q ~exclude ~budget);
  if Best.full s.best then Best.drain s.best
  else begin
    Telemetry.Counter.incr c_exact_fallbacks;
    exact_k_nearest s.best index.coords index.order index.dim q ~exclude
  end

let query_point index s i ~budget =
  knn_search index s index.points.(i) ~exclude:i ~budget

let query index ?(probes = 12) q k =
  let n = Array.length index.points in
  if k < 0 || k > n then invalid_arg "Ann.query: k out of range";
  if Array.length q <> index.dim then invalid_arg "Ann.query: dimension mismatch";
  if k = 0 then [||]
  else knn_search index (scratch k) q ~exclude:(-1) ~budget:(max 1 probes)

(* measured recall of the current budget on a fixed sample of queries:
   |approx ∩ exact| / (k · #sample), with the exact sets computed once *)
let sample_recall index ~budget ~k sample exact_sets =
  let hits = ref 0 in
  let s = scratch k in
  Array.iteri
    (fun t i ->
      let approx = query_point index s i ~budget in
      let exact = exact_sets.(t) in
      Array.iter
        (fun j -> if Array.exists (fun e -> e = j) exact then incr hits)
        approx)
    sample;
  float_of_int !hits /. float_of_int (k * Array.length sample)

let all_k_nearest ?seed ?trees ?leaf_size ?(probes = 4)
    ?(recall_target = 0.9) ?(recall_sample = 64) ?(exact_cutoff = 2048)
    points k =
  let n, d = validate points in
  if k < 0 || k >= n then invalid_arg "Ann.all_k_nearest: k must be < n";
  if recall_target < 0. || recall_target > 1. then
    invalid_arg "Ann.all_k_nearest: recall_target must be in [0, 1]";
  if probes < 1 then invalid_arg "Ann.all_k_nearest: probes must be >= 1";
  let exact_info =
    { exact = true; trees = 0; probes = 0; escalations = 0; recall = 1. }
  in
  if k = 0 then (Array.make n [||], exact_info)
  else if n <= exact_cutoff then begin
    (* small n: no forest, every point scanned in input order *)
    Telemetry.Counter.incr c_exact_fallbacks;
    let all = Array.init n Fun.id in
    (exact_rows (flatten points d) all d points k all, exact_info)
  end
  else begin
    let index = build ?seed ?trees ?leaf_size points in
    Telemetry.Span.with_ "ann.search" (fun () ->
        let ntrees = Array.length index.forest in
        (* recall probe sample (and its exact answers) is fixed up front,
           derived from the same seed as the forest *)
        let sample_size = min n (max 1 recall_sample) in
        let sample_rng =
          Rng.substream (Rng.create (Option.value seed ~default:0x5eed)) 7919
        in
        let sample =
          Rng.sample_without_replacement sample_rng sample_size n
        in
        let exact_sets =
          exact_rows index.coords index.order d points k sample
        in
        (* escalate the leaf-visit budget until the sampled recall meets
           the target; at total_leaves the search is exhaustive, so the
           loop always terminates with recall 1.0 in the worst case *)
        let budget = ref (min index.total_leaves (ntrees * probes)) in
        let escalations = ref 0 in
        let recall = ref (sample_recall index ~budget:!budget ~k sample exact_sets) in
        while !recall < recall_target && !budget < index.total_leaves do
          budget := min index.total_leaves (2 * !budget);
          incr escalations;
          Telemetry.Counter.incr c_escalations;
          recall := sample_recall index ~budget:!budget ~k sample exact_sets
        done;
        (* commit: run every query at the final budget, in parallel and
           in leaf order, so consecutive queries probe nearby leaves *)
        let out = Array.make n [||] in
        let rows lo hi =
          let s = scratch k in
          for p = lo to hi - 1 do
            let i = index.order.(p) in
            out.(i) <- query_point index s i ~budget:!budget
          done
        in
        Parallel.Dispatch.run Parallel.Dispatch.Pairwise
          ~work:(n * !budget * index.leaf_size) n rows;
        ( out,
          {
            exact = false;
            trees = ntrees;
            probes = !budget;
            escalations = !escalations;
            recall = !recall;
          } ))
  end
