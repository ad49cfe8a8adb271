(* Exact all-k-nearest-neighbours from one kd-tree.

   Both orders the tree relies on — (coordinate, index) for the median
   split and (distance², index) for the ranking — are strict total
   orders under [key_lt], so the selection below returns what a full
   sort would, whatever order the keys arrive in.

   The telemetry keeps the names of the approximate forest this tree
   replaced ([ann.*], [graph.ann.*]) because the benchmark's traced run
   and its per-layer metrics read them. *)

let c_builds = Telemetry.Counter.make "graph.ann.builds"
let c_queries = Telemetry.Counter.make "graph.ann.queries"
let c_candidates = Telemetry.Counter.make "graph.ann.candidates"
let c_leaves = Telemetry.Counter.make "graph.ann.leaves"

let leaf_size = 16

(* Node [v] of a complete binary layout (children 2v+1 and 2v+2) covers
   a segment [off, off+len) of the leaf order: a leaf when len <= 16,
   else split at off + len/2, so the layout follows from [n] alone.
   An internal node keeps its split axis, the largest axis coordinate
   in its left half and the smallest in its right half. *)
type t = {
  n : int;
  dim : int;
  coords : float array;
      (* the points row-major in leaf order: position p holds point
         [ids.(p)] *)
  ids : int array;
  axis : int array;
  hi_left : float array;
  lo_right : float array;
}

let validate points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Kdtree: empty data";
  let d = Array.length points.(0) in
  Array.iteri
    (fun i p ->
      if Array.length p <> d then invalid_arg "Kdtree: ragged data";
      for c = 0 to d - 1 do
        if not (Float.is_finite p.(c)) then
          invalid_arg
            (Printf.sprintf "Kdtree: point %d has a non-finite coordinate" i)
      done)
    points;
  (n, d)

(* (value, index) strictly before (value', index') *)
let[@inline] key_lt (v : float) (i : int) v' i' =
  let c = Float.compare v v' in
  c < 0 || (c = 0 && i < i')

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* Sort [lo, hi] of the parallel arrays [key]/[idx] by [key_lt]. *)
let sort_range key (idx : int array) lo hi =
  let len = hi - lo + 1 in
  let perm = Array.init len (fun t -> lo + t) in
  Array.sort
    (fun a b ->
      let c = Float.compare key.(a) key.(b) in
      if c <> 0 then c else compare idx.(a) idx.(b))
    perm;
  let p = Array.map (fun t -> key.(t)) perm in
  let x = Array.map (fun t -> idx.(t)) perm in
  Array.blit p 0 key lo len;
  Array.blit x 0 idx lo len

(* Rearrange [lo, hi] of [key]/[idx] in place so position [k] holds the
   key of its rank, smaller keys before it and larger ones after
   (Hoare's FIND with a median-of-three pivot): O(len) expected.  Past
   log₂ len partition rounds it sorts what is left instead, so no input
   can make it quadratic. *)
let select key idx lo hi k =
  let swap a b =
    let p = key.(a) and x = idx.(a) in
    key.(a) <- key.(b);
    idx.(a) <- idx.(b);
    key.(b) <- p;
    idx.(b) <- x
  in
  let lt a b = key_lt key.(a) idx.(a) key.(b) idx.(b) in
  let lo = ref lo and hi = ref hi in
  let rounds = ref (log2 (!hi - !lo + 1)) in
  while !lo < !hi do
    if !rounds = 0 then begin
      sort_range key idx !lo !hi;
      lo := !hi
    end
    else begin
      decr rounds;
      let m = !lo + ((!hi - !lo) / 2) in
      if lt m !lo then swap m !lo;
      if lt !hi !lo then swap !hi !lo;
      if lt !hi m then swap !hi m;
      let pv = key.(m) and pi = idx.(m) in
      let i = ref !lo and j = ref !hi in
      while !i <= !j do
        while key_lt key.(!i) idx.(!i) pv pi do incr i done;
        while key_lt pv pi key.(!j) idx.(!j) do decr j done;
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

(* levels below the root: the larger half of a split is the upper one *)
let rec depth len = if len <= leaf_size then 0 else 1 + depth (len - (len / 2))

let build points n dim =
  let nodes = (1 lsl (depth n + 1)) - 1 in
  let axis = Array.make nodes 0
  and hi_left = Array.make nodes 0.
  and lo_right = Array.make nodes 0. in
  let idx = Array.init n Fun.id and key = Array.make n 0. in
  let lo = Array.make dim 0. and hi = Array.make dim 0. in
  let rec split v off len =
    if len > leaf_size then begin
      (* the widest coordinate of the segment's points, lowest on ties *)
      Array.blit points.(idx.(off)) 0 lo 0 dim;
      Array.blit points.(idx.(off)) 0 hi 0 dim;
      for p = off + 1 to off + len - 1 do
        let x = points.(idx.(p)) in
        for c = 0 to dim - 1 do
          if x.(c) < lo.(c) then lo.(c) <- x.(c)
          else if x.(c) > hi.(c) then hi.(c) <- x.(c)
        done
      done;
      let a = ref 0 in
      for c = 1 to dim - 1 do
        if hi.(c) -. lo.(c) > hi.(!a) -. lo.(!a) then a := c
      done;
      let a = !a in
      for p = off to off + len - 1 do
        key.(p) <- points.(idx.(p)).(a)
      done;
      let half = len / 2 in
      let mid = off + half in
      select key idx off (off + len - 1) mid;
      let top = ref key.(off) in
      for p = off + 1 to mid - 1 do
        if key.(p) > !top then top := key.(p)
      done;
      axis.(v) <- a;
      hi_left.(v) <- !top;
      lo_right.(v) <- key.(mid);
      split ((2 * v) + 1) off half;
      split ((2 * v) + 2) mid (len - half)
    end
  in
  split 0 0 n;
  let coords = Array.make (n * dim) 0. in
  Array.iteri (fun p i -> Array.blit points.(i) 0 coords (p * dim) dim) idx;
  { n; dim; coords; ids = idx; axis; hi_left; lo_right }

(* ---- the k best (distance², index) keys ------------------------- *)

(* A bounded binary max-heap under [key_lt]: the root is the worst key
   kept, so a candidate is admitted only when it beats the root (or the
   heap is not yet full).  [d2]/[id] hold the heap in [0, size) plus one
   staging slot at index k: a key moves between functions through the
   arrays, never as a boxed float argument, so admitting one allocates
   nothing. *)
module Best = struct
  type t = { d2 : float array; id : int array; mutable size : int }

  let create k =
    { d2 = Array.make (k + 1) 0.; id = Array.make (k + 1) 0; size = 0 }

  let capacity b = Array.length b.id - 1
  let full b = b.size = capacity b

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

  (* Admit the key staged at slot k, which the caller has found to beat
     the root, or the heap is not yet full. *)
  let push b =
    let k = capacity b in
    if b.size < k then begin
      let d = b.d2.(k) and j = b.id.(k) in
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
    else sift_down b k

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

(* ---- branch and bound ------------------------------------------- *)

(* Per-chunk search state, reused query after query.  [off.(c)] is the
   query's offset along axis c from the current cell (0 inside it). *)
type scratch = {
  best : Best.t;
  off : float array;
  mutable q : int;  (* the query's position in the leaf order *)
  mutable leaves : int;
  mutable candidates : int;
}

(* Whether the cell whose offsets are [s.off] can hold a key that beats
   the heap's root.  The bound re-adds the offsets' squares in
   [Vec.dist2_sq]'s order rather than taking Arya and Mount's O(1)
   update rd − old² + new², which can round above a point's computed
   distance and so skip a tie.  Each point of the cell lies at least
   the offset away along every axis and rounding is monotone, so no
   point's computed distance falls below the re-added sum.  A cell
   whose bound ties the root is still visited. *)
let reachable dim s =
  (not (Best.full s.best))
  ||
  let acc = ref 0. in
  for c = 0 to dim - 1 do
    let o = s.off.(c) in
    acc := !acc +. (o *. o)
  done;
  !acc <= s.best.d2.(0)

(* Visit node [v], covering [off, off+len), whose cell the caller has
   found reachable: near child first, then the far one if it still is.
   The far child's offset along the split axis is the query's distance
   to that child's extreme coordinate, which is never below the offset
   the node had there. *)
let rec visit t s v off len =
  if len <= leaf_size then begin
    s.leaves <- s.leaves + 1;
    s.candidates <- s.candidates + len;
    let b = s.best and coords = t.coords and dim = t.dim in
    let qbase = s.q * dim and k = Best.capacity s.best in
    for x = off to off + len - 1 do
      if x <> s.q then begin
        (* [Vec.dist2_sq]'s operation order, so the keys are its bits *)
        let base = x * dim in
        let acc = ref 0. in
        for c = 0 to dim - 1 do
          let dx = coords.(base + c) -. coords.(qbase + c) in
          acc := !acc +. (dx *. dx)
        done;
        let d = !acc and j = t.ids.(x) in
        if (not (Best.full b)) || key_lt d j b.d2.(0) b.id.(0) then begin
          b.d2.(k) <- d;
          b.id.(k) <- j;
          Best.push b
        end
      end
    done
  end
  else begin
    let half = len / 2 in
    let a = t.axis.(v) in
    let qa = t.coords.((s.q * t.dim) + a) in
    let below = qa -. t.hi_left.(v) and above = t.lo_right.(v) -. qa in
    let old = s.off.(a) in
    if below <= above then begin
      visit t s ((2 * v) + 1) off half;
      s.off.(a) <- above;
      if reachable t.dim s then visit t s ((2 * v) + 2) (off + half) (len - half)
    end
    else begin
      visit t s ((2 * v) + 2) (off + half) (len - half);
      s.off.(a) <- below;
      if reachable t.dim s then visit t s ((2 * v) + 1) off half
    end;
    s.off.(a) <- old
  end

let all_k_nearest points k =
  let n, dim = validate points in
  if k < 1 || k >= n then
    invalid_arg "Kdtree.all_k_nearest: k must lie in [1, n-1]";
  let t =
    Telemetry.Span.with_ "ann.build" (fun () ->
        Telemetry.Counter.incr c_builds;
        build points n dim)
  in
  Telemetry.Span.with_ "ann.search" (fun () ->
      let out = Array.make n [||] in
      (* one query a row, in leaf order, so consecutive queries walk
         nearby leaves *)
      Parallel.Dispatch.run Parallel.Dispatch.Pairwise
        ~work:(n * Int.min n leaf_size) n (fun lo hi ->
          let s =
            {
              best = Best.create k;
              off = Array.make dim 0.;
              q = 0;
              leaves = 0;
              candidates = 0;
            }
          in
          for p = lo to hi - 1 do
            s.q <- p;
            visit t s 0 0 t.n;
            out.(t.ids.(p)) <- Best.drain s.best
          done;
          Telemetry.Counter.add c_queries (hi - lo);
          Telemetry.Counter.add c_leaves s.leaves;
          Telemetry.Counter.add c_candidates s.candidates);
      out)
