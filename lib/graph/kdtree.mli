(** Exact k-nearest neighbours of every point, from one kd-tree.

    The tree splits the widest coordinate of each node's points at the
    positional median under the (coordinate, index) order, down to
    leaves of at most 16 points.  Each query is a depth-first branch and
    bound from the root, near child first, that tracks Arya and Mount's
    per-axis offsets from the query to the current cell.  It skips a
    cell only when the cell's lower bound is strictly above the worst
    of the [k] (distance², index) keys kept so far, so a tied candidate
    is always reached.  The lists are therefore exactly those of a full
    scan ranked by (distance², index), with tied distances going to the
    lower index, in any dimension and for any domain count.

    {2 Cost}

    The build selects each median in place (expected O(len), sorting
    what is left past log₂ len partition rounds, so never quadratic):
    O(n·d·log n) in all.  The index holds one row-major copy of the
    points, n·d floats laid out in leaf order, plus O(n / 16) split
    records.  A query offers each point of each visited leaf once into
    a bounded max-heap, with no membership scan, and allocates only its
    answer.

    Pruning works only at low d.  On Model-1 points (d = 5, k = 8) a
    query visits about 30 leaves at 10⁴ points (of 1024) and 31 at 10⁵
    (of 8192), about 380 candidates.  On uniform points at
    n = 2·10⁴ (k = 8, 2-vCPU VM) the exact search lost to the
    randomized projection forest it replaced: 1.69 s against 1.16 s at
    d = 10, and 13.2 s against 5.9 s at d = 20, where a query visited
    2029 of 2048 leaves.  Every large input in this repository is
    5-dimensional; measure a new high-d caller before relying on the
    tree.

    {2 Determinism}

    The build is serial.  Queries run in leaf order on the domain pool
    under [Parallel.Dispatch]'s pairwise rule (work [n · min n 16]);
    each depends only on the tree and its own point, so the output is
    bit-identical for any domain count.

    {2 Telemetry}

    Spans [ann.build] and [ann.search]; counters [graph.ann.builds],
    [graph.ann.queries], [graph.ann.candidates] (points of visited
    leaves) and [graph.ann.leaves] (leaf visits). *)

val all_k_nearest : Linalg.Vec.t array -> int -> int array array
(** [all_k_nearest points k] is each point's [k] nearest other points,
    ranked by (squared distance in [Linalg.Vec.dist2_sq]'s operation
    order, index).  Raises [Invalid_argument] on empty or ragged input,
    naming the first point with a non-finite coordinate, or unless
    [1 <= k < n]. *)
