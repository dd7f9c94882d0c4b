(* Flat structure-of-arrays answer graph. The previous representation
   kept one (int, unit) Hashtbl per element for wins and one for losses;
   per-run construction then paid 2n hashtable allocations plus hashing
   on every answer, and the candidate set was rescanned O(n) on every
   query. Here:

   - adjacency is a single grow-on-demand edge pool with intrusive
     head/next int-array chains per element (one chain over winners, one
     over losers), so recording an answer is a handful of int stores and
     allocation-free outside amortized pool doubling;
   - direct-loss membership is a bitset row per element (32 bits per
     word, so word and bit indices are a shift and a mask, not a
     division);
   - the loss count per element is maintained on add;
   - the candidate set is a bitset plus a count, cleared incrementally
     as elements take their first loss, so remaining_candidates /
     candidates read maintained state in O(n/32 + candidates) ascending
     and is_singleton / winner are O(1).

   A DAG can be recycled with [reset]: the per-element arrays, the
   bitsets and the edge pools then keep the largest capacity they ever
   reached, so every array may be longer than the live prefix.
   Whole-array operations are bounded by [n] (per-element arrays),
   [words] (the candidate bitset) and [n * words] (the loss bitset). *)

type ext = ..
type ext += Ext_none

type t = {
  mutable n : int;
  mutable words : int; (* 32-bit words per loss-bitset row: (n + 31) / 32 *)
  mutable answer_count : int; (* = edges used in the pool *)
  mutable win_head : int array; (* first edge won by the element; -1 = none *)
  mutable loss_head : int array; (* first edge lost by the element; -1 = none *)
  (* Edge [e] records (winner, loser): [edge_loser.(e)] chained through
     [win_next.(e)] from [win_head.(winner)], and [edge_winner.(e)]
     chained through [loss_next.(e)] from [loss_head.(loser)]. *)
  mutable edge_winner : int array;
  mutable edge_loser : int array;
  mutable win_next : int array;
  mutable loss_next : int array;
  mutable loss_count : int array; (* direct-loss count, maintained on add *)
  mutable loss_bits : int array; (* flat n*words; row b bit a set iff a beat b *)
  mutable cand_bits : int array; (* words-long bitset: bit x set iff x unbeaten *)
  mutable cand_count : int;
  mutable scratch_desc : int array; (* reused by transitive_win_counts *)
  mutable generation : int; (* bumped by every reset, never restarted *)
  mutable ext : ext; (* derived-data cache slot (see Scoring) *)
}

exception Cycle of int * int

let check_sizes ~caller ~edge_capacity n =
  if n < 0 then invalid_arg ("Answer_dag." ^ caller ^ ": negative size");
  if edge_capacity < 0 then
    invalid_arg ("Answer_dag." ^ caller ^ ": negative edge_capacity")

(* Turn [t] into the empty graph over [n] elements, growing storage only
   where it is too small. Only [add_answer_unchecked] sets a loss bit,
   and it records an edge whenever it does: clearing the word of every
   recorded edge, under the old row stride, zeroes the whole bitset in
   O(answers). *)
let clear_to t ~edge_capacity n =
  for e = 0 to t.answer_count - 1 do
    t.loss_bits.((t.edge_loser.(e) * t.words) + (t.edge_winner.(e) lsr 5)) <- 0
  done;
  let words = (n + 31) / 32 in
  if Array.length t.loss_bits < n * words then
    t.loss_bits <- Array.make (n * words) 0;
  if Array.length t.loss_count < n then begin
    t.win_head <- Array.make n (-1);
    t.loss_head <- Array.make n (-1);
    t.loss_count <- Array.make n 0
  end
  else begin
    Array.fill t.win_head 0 n (-1);
    Array.fill t.loss_head 0 n (-1);
    Array.fill t.loss_count 0 n 0
  end;
  if Array.length t.cand_bits < words then t.cand_bits <- Array.make words 0;
  for w = 0 to words - 1 do
    let bits_here = min 32 (n - (w lsl 5)) in
    t.cand_bits.(w) <-
      (if bits_here = 32 then 0xFFFFFFFF else (1 lsl bits_here) - 1)
  done;
  if Array.length t.edge_winner < edge_capacity then begin
    t.edge_winner <- Array.make edge_capacity (-1);
    t.edge_loser <- Array.make edge_capacity (-1);
    t.win_next <- Array.make edge_capacity (-1);
    t.loss_next <- Array.make edge_capacity (-1)
  end;
  t.n <- n;
  t.words <- words;
  t.answer_count <- 0;
  t.cand_count <- n;
  (* A ranking cache keys on [answer_count], which the new graph starts
     over, so it also keys on the generation: the bump makes every memo
     of the old graph stale while [ext] keeps its buffers. *)
  t.generation <- t.generation + 1

let create ?(edge_capacity = 0) n =
  check_sizes ~caller:"create" ~edge_capacity n;
  let t =
    {
      n = 0;
      words = 0;
      answer_count = 0;
      win_head = [||];
      loss_head = [||];
      edge_winner = [||];
      edge_loser = [||];
      win_next = [||];
      loss_next = [||];
      loss_count = [||];
      loss_bits = [||];
      cand_bits = [||];
      cand_count = 0;
      scratch_desc = [||];
      generation = 0;
      ext = Ext_none;
    }
  in
  clear_to t ~edge_capacity n;
  t

let reset ?(edge_capacity = 0) t n =
  check_sizes ~caller:"reset" ~edge_capacity n;
  clear_to t ~edge_capacity n

let size t = t.n

let copy t =
  let m = t.answer_count in
  {
    n = t.n;
    words = t.words;
    answer_count = m;
    win_head = Array.sub t.win_head 0 t.n;
    loss_head = Array.sub t.loss_head 0 t.n;
    edge_winner = Array.sub t.edge_winner 0 m;
    edge_loser = Array.sub t.edge_loser 0 m;
    win_next = Array.sub t.win_next 0 m;
    loss_next = Array.sub t.loss_next 0 m;
    loss_count = Array.sub t.loss_count 0 t.n;
    loss_bits = Array.sub t.loss_bits 0 (t.n * t.words);
    cand_bits = Array.sub t.cand_bits 0 t.words;
    cand_count = t.cand_count;
    scratch_desc = [||];
    generation = t.generation;
    (* Derived caches must not be shared: the copy diverges from the
       original, and answer_count alone cannot tell their states apart. *)
    ext = Ext_none;
  }

let ext t = t.ext
let generation t = t.generation
let set_ext t e = t.ext <- e

let[@inline] check_id t x name =
  if x < 0 || x >= t.n then
    invalid_arg ("Answer_dag: out-of-range element in " ^ name)
[@@alloc_free]

(* Direct-loss membership: does [winner] beat [loser] directly? *)
let[@inline] mem_edge t ~winner ~loser =
  Array.unsafe_get t.loss_bits ((loser * t.words) + (winner lsr 5))
  land (1 lsl (winner land 31))
  <> 0
[@@alloc_free]

let beats_directly t a b =
  check_id t a "beats_directly";
  check_id t b "beats_directly";
  mem_edge t ~winner:a ~loser:b
[@@alloc_free]

let grow_pool t =
  let cap = Array.length t.edge_winner in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let extend arr =
    let arr' = Array.make cap' (-1) in
    Array.blit arr 0 arr' 0 cap;
    arr'
  in
  t.edge_winner <- extend t.edge_winner;
  t.edge_loser <- extend t.edge_loser;
  t.win_next <- extend t.win_next;
  t.loss_next <- extend t.loss_next

(* Clear [x]'s candidate bit; called exactly once per element, on its
   first loss. *)
let[@inline] remove_candidate t x =
  let w = x lsr 5 in
  Array.unsafe_set t.cand_bits w
    (Array.unsafe_get t.cand_bits w land lnot (1 lsl (x land 31)));
  t.cand_count <- t.cand_count - 1
[@@alloc_free]

let iter_wins t x f =
  check_id t x "iter_wins";
  let e = ref (Array.unsafe_get t.win_head x) in
  while !e >= 0 do
    f (Array.unsafe_get t.edge_loser !e);
    e := Array.unsafe_get t.win_next !e
  done

let iter_lost_to t x f =
  check_id t x "iter_lost_to";
  let e = ref (Array.unsafe_get t.loss_head x) in
  while !e >= 0 do
    f (Array.unsafe_get t.edge_winner !e);
    e := Array.unsafe_get t.loss_next !e
  done

(* DFS over direct wins; the graph is acyclic so visited-marking DFS
   terminates. *)
let beats t a b =
  check_id t a "beats";
  check_id t b "beats";
  let visited = Bytes.make t.n '\000' in
  let rec dfs x =
    x = b
    || Bytes.unsafe_get visited x = '\000'
       && begin
            Bytes.unsafe_set visited x '\001';
            let rec scan e =
              e >= 0
              && (dfs (Array.unsafe_get t.edge_loser e)
                 || scan (Array.unsafe_get t.win_next e))
            in
            scan (Array.unsafe_get t.win_head x)
          end
  in
  a <> b && dfs a

let add_answer_unchecked t ~winner ~loser =
  check_id t winner "add_answer";
  check_id t loser "add_answer";
  if winner = loser then invalid_arg "Answer_dag.add_answer: self-comparison";
  if not (mem_edge t ~winner ~loser) then begin
    (* check_id above bounds winner/loser, grow_pool bounds [e], and the
       bitset word index is < n*words by construction, so the stores
       below cannot go out of range. *)
    let w = (loser * t.words) + (winner lsr 5) in
    Array.unsafe_set t.loss_bits w
      (Array.unsafe_get t.loss_bits w lor (1 lsl (winner land 31)));
    let e = t.answer_count in
    if e = Array.length t.edge_winner then (grow_pool [@alloc_cold]) t;
    Array.unsafe_set t.edge_winner e winner;
    Array.unsafe_set t.edge_loser e loser;
    Array.unsafe_set t.win_next e (Array.unsafe_get t.win_head winner);
    Array.unsafe_set t.win_head winner e;
    Array.unsafe_set t.loss_next e (Array.unsafe_get t.loss_head loser);
    Array.unsafe_set t.loss_head loser e;
    let lc = Array.unsafe_get t.loss_count loser + 1 in
    Array.unsafe_set t.loss_count loser lc;
    if lc = 1 then remove_candidate t loser;
    t.answer_count <- e + 1
  end
[@@alloc_free]

let add_answer t ~winner ~loser =
  check_id t winner "add_answer";
  check_id t loser "add_answer";
  if winner = loser then invalid_arg "Answer_dag.add_answer: self-comparison";
  if mem_edge t ~winner ~loser then ()
  else if beats t loser winner then raise (Cycle (winner, loser))
  else add_answer_unchecked t ~winner ~loser

let losses t x =
  check_id t x "losses";
  t.loss_count.(x)
[@@alloc_free]

let direct_wins t x =
  let acc = ref [] in
  iter_wins t x (fun y -> acc := y :: !acc);
  !acc

let direct_losses_to t x =
  let acc = ref [] in
  iter_lost_to t x (fun y -> acc := y :: !acc);
  !acc

let candidate_count t = t.cand_count [@@alloc_free]

(* Index of the lowest set bit of a nonzero 32-bit word: the isolated
   bit times the de Bruijn constant 0x077CB531 puts a distinct 5-bit
   pattern in bits 27-31, which this table (a string, so it is
   immutable) maps back to the bit index. *)
let debruijn_index =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@inline] lowest_bit b =
  Char.code
    (String.unsafe_get debruijn_index
       ((((b land -b) * 0x077CB531) land 0xFFFFFFFF) lsr 27))
[@@alloc_free]

(* Visits only the set bits of each candidate word, lowest first, so
   the output stays ascending. *)
let candidates_into t out =
  if Array.length out < t.cand_count then
    invalid_arg "Answer_dag.candidates_into: array shorter than the RC set";
  let k = ref 0 in
  for w = 0 to t.words - 1 do
    let b = ref (Array.unsafe_get t.cand_bits w) in
    while !b <> 0 do
      Array.unsafe_set out !k ((w lsl 5) + lowest_bit !b);
      incr k;
      b := !b land (!b - 1)
    done
  done
[@@alloc_free]

let candidates t =
  let out = Array.make t.cand_count 0 in
  candidates_into t out;
  out

let remaining_candidates t =
  let acc = ref [] in
  for w = t.words - 1 downto 0 do
    let b = Array.unsafe_get t.cand_bits w in
    if b <> 0 then
      for j = 31 downto 0 do
        if b land (1 lsl j) <> 0 then acc := ((w lsl 5) + j) :: !acc
      done
  done;
  !acc

let is_singleton t = t.cand_count = 1 [@@alloc_free]

let winner t =
  if t.cand_count <> 1 then None
  else begin
    let w = ref 0 in
    while Array.unsafe_get t.cand_bits !w = 0 do
      incr w
    done;
    Some ((!w lsl 5) + lowest_bit (Array.unsafe_get t.cand_bits !w))
  end

let answers t =
  let rec loop acc e =
    if e < 0 then acc
    else loop ((t.edge_winner.(e), t.edge_loser.(e)) :: acc) (e - 1)
  in
  loop [] (t.answer_count - 1)

let answer_count t = t.answer_count

let topological_order t =
  (* Kahn's algorithm on the win relation: sources are elements nobody
     beat, i.e. the remaining candidates. *)
  let indeg = Array.sub t.loss_count 0 t.n in
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let order = Array.make t.n 0 in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    order.(!k) <- x;
    incr k;
    iter_wins t x (fun y ->
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then Queue.add y queue)
  done;
  assert (!k = t.n);
  order

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let popcount x =
    let c = ref 0 in
    let b = ref x in
    while !b <> 0 do
      b := !b land (!b - 1);
      incr c
    done;
    !c
  in
  (* A word may only use the bits that correspond to elements < n. *)
  let check_tail_bits what w word =
    let live = t.n - (w lsl 5) in
    if live < 32 && word land lnot ((1 lsl max live 0) - 1) <> 0 then
      fail "Answer_dag.check_invariants: %s word %d sets bits beyond n" what w
  in
  if t.answer_count < 0 || t.answer_count > Array.length t.edge_winner then
    fail "Answer_dag.check_invariants: answer_count %d outside pool capacity %d"
      t.answer_count
      (Array.length t.edge_winner);
  (* Loss bitset rows recount to the maintained loss_count. *)
  for b = 0 to t.n - 1 do
    let c = ref 0 in
    for w = 0 to t.words - 1 do
      let word = t.loss_bits.((b * t.words) + w) in
      check_tail_bits "loss_bits" w word;
      c := !c + popcount word
    done;
    if !c <> t.loss_count.(b) then
      fail "Answer_dag.check_invariants: loss_count.(%d) = %d but bitset row \
            holds %d"
        b t.loss_count.(b) !c;
    if mem_edge t ~winner:b ~loser:b then
      fail "Answer_dag.check_invariants: self-loss bit set for %d" b
  done;
  (* Candidate bitset: bit x iff x has no loss; popcount = cand_count. *)
  let cc = ref 0 in
  for w = 0 to t.words - 1 do
    let word = t.cand_bits.(w) in
    check_tail_bits "cand_bits" w word;
    cc := !cc + popcount word
  done;
  if !cc <> t.cand_count then
    fail "Answer_dag.check_invariants: cand_count = %d but bitset holds %d"
      t.cand_count !cc;
  for x = 0 to t.n - 1 do
    let bit = t.cand_bits.(x lsr 5) land (1 lsl (x land 31)) <> 0 in
    if bit <> (t.loss_count.(x) = 0) then
      fail "Answer_dag.check_invariants: candidate bit of %d disagrees with \
            its loss count"
        x
  done;
  (* Every pool entry is a real, in-range, bitset-backed edge. *)
  for e = 0 to t.answer_count - 1 do
    let w = t.edge_winner.(e) and l = t.edge_loser.(e) in
    if w < 0 || w >= t.n || l < 0 || l >= t.n then
      fail "Answer_dag.check_invariants: edge %d endpoints (%d, %d) out of \
            range"
        e w l;
    if w = l then fail "Answer_dag.check_invariants: edge %d is a self-loop" e;
    if not (mem_edge t ~winner:w ~loser:l) then
      fail "Answer_dag.check_invariants: edge %d (%d beats %d) missing from \
            the loss bitset"
        e w l
  done;
  (* Chain integrity: the win chains partition the used pool by winner,
     the loss chains by loser, each loss chain as long as the loss count
     and free of duplicate winners. *)
  let seen = Bytes.make (max t.answer_count 1) '\000' in
  let walk what head next endpoint owner_of per_chain =
    Bytes.fill seen 0 (Bytes.length seen) '\000';
    let visited = ref 0 in
    for x = 0 to t.n - 1 do
      let here = ref 0 in
      let e = ref head.(x) in
      while !e >= 0 do
        if !e >= t.answer_count then
          fail "Answer_dag.check_invariants: %s chain of %d reaches unused \
                edge %d"
            what x !e;
        if owner_of !e <> x then
          fail "Answer_dag.check_invariants: edge %d on the %s chain of %d \
                belongs to %d"
            !e what x (owner_of !e);
        if Bytes.get seen !e <> '\000' then
          fail "Answer_dag.check_invariants: edge %d appears on two %s chains"
            !e what;
        Bytes.set seen !e '\001';
        incr visited;
        incr here;
        if !here > t.answer_count then
          fail "Answer_dag.check_invariants: %s chain of %d cycles" what x;
        ignore (endpoint !e);
        e := next.(!e)
      done;
      per_chain x !here
    done;
    if !visited <> t.answer_count then
      fail "Answer_dag.check_invariants: %s chains cover %d of %d edges" what
        !visited t.answer_count
  in
  walk "win" t.win_head t.win_next
    (fun e -> t.edge_loser.(e))
    (fun e -> t.edge_winner.(e))
    (fun _ _ -> ());
  walk "loss" t.loss_head t.loss_next
    (fun e -> t.edge_winner.(e))
    (fun e -> t.edge_loser.(e))
    (fun x len ->
      if len <> t.loss_count.(x) then
        fail "Answer_dag.check_invariants: loss chain of %d has %d edges but \
              loss_count says %d"
          x len t.loss_count.(x));
  (* No duplicate (winner, loser) pairs in the pool: within each loss
     chain every winner must be distinct. *)
  let mark = Bytes.make t.n '\000' in
  for x = 0 to t.n - 1 do
    let e = ref t.loss_head.(x) in
    while !e >= 0 do
      let w = t.edge_winner.(!e) in
      if Bytes.get mark w <> '\000' then
        fail "Answer_dag.check_invariants: duplicate edge %d beats %d" w x;
      Bytes.set mark w '\001';
      e := t.loss_next.(!e)
    done;
    let e = ref t.loss_head.(x) in
    while !e >= 0 do
      Bytes.set mark t.edge_winner.(!e) '\000';
      e := t.loss_next.(!e)
    done
  done

let transitive_win_counts t =
  (* Process in reverse topological order (losers first) accumulating
     descendant sets as flat 32-bit-word bitsets; the per-dag scratch is
     reused across calls (dags are confined to one domain). *)
  let order = topological_order t in
  let words = t.words in
  if Array.length t.scratch_desc < t.n * words then
    t.scratch_desc <- Array.make (t.n * words) 0
  else Array.fill t.scratch_desc 0 (t.n * words) 0;
  let desc = t.scratch_desc in
  let counts = Array.make t.n 0 in
  for idx = t.n - 1 downto 0 do
    let x = order.(idx) in
    let base = x * words in
    iter_wins t x (fun y ->
        desc.(base + (y lsr 5)) <-
          desc.(base + (y lsr 5)) lor (1 lsl (y land 31));
        let yb = y * words in
        for w = 0 to words - 1 do
          desc.(base + w) <- desc.(base + w) lor desc.(yb + w)
        done);
    let c = ref 0 in
    for w = 0 to words - 1 do
      let b = ref desc.(base + w) in
      while !b <> 0 do
        b := !b land (!b - 1);
        incr c
      done
    done;
    counts.(x) <- !c
  done;
  counts
