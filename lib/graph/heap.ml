type t = {
  keys : int array;        (* keys.(i) = key stored at heap slot i *)
  prio : float array;      (* prio.(i) = priority of keys.(i) *)
  pos : int array;         (* pos.(k) = slot of key k, or -1 *)
  mutable len : int;
}

let create capacity =
  if capacity < 0 then invalid_arg "Heap.create";
  {
    keys = Array.make (max capacity 1) (-1);
    prio = Array.make (max capacity 1) 0.0;
    pos = Array.make (max capacity 1) (-1);
    len = 0;
  }

let is_empty h = h.len = 0

let size h = h.len

let mem h k = k >= 0 && k < Array.length h.pos && h.pos.(k) >= 0

let priority h k =
  if not (mem h k) then invalid_arg "Heap.priority: absent key";
  h.prio.(h.pos.(k))

(* Hole-based sifts. The element at slot [i] is read once into locals (the
   float stays unboxed), every element it passes moves one level in a single
   write of (key, prio, pos), and the element lands in its final slot with
   one more write. Slots compare by priority, then by key. Slot indices stay
   below [len] and stored keys were range-checked on insert, so the sifts
   skip bounds checks. *)
let sift_up h i =
  let keys = h.keys and prio = h.prio and pos = h.pos in
  let k = Array.unsafe_get keys i and p = Array.unsafe_get prio i in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get prio parent and kp = Array.unsafe_get keys parent in
    if p < pp || (p = pp && k < kp) then begin
      Array.unsafe_set keys !i kp;
      Array.unsafe_set prio !i pp;
      Array.unsafe_set pos kp !i;
      i := parent
    end
    else moving := false
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set prio !i p;
  Array.unsafe_set pos k !i

let sift_down h i =
  let keys = h.keys and prio = h.prio and pos = h.pos and len = h.len in
  let k = Array.unsafe_get keys i and p = Array.unsafe_get prio i in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= len then moving := false
    else begin
      let r = l + 1 in
      let pl = Array.unsafe_get prio l in
      let c =
        if r < len
           && (let pr = Array.unsafe_get prio r in
               pr < pl || (pr = pl && Array.unsafe_get keys r < Array.unsafe_get keys l))
        then r
        else l
      in
      let pc = Array.unsafe_get prio c and kc = Array.unsafe_get keys c in
      if pc < p || (pc = p && kc < k) then begin
        Array.unsafe_set keys !i kc;
        Array.unsafe_set prio !i pc;
        Array.unsafe_set pos kc !i;
        i := c
      end
      else moving := false
    end
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set prio !i p;
  Array.unsafe_set pos k !i

let[@inline] check_key h k =
  if k < 0 || k >= Array.length h.pos then invalid_arg "Heap.insert: key out of range"

(* Appends [k] at the end and sifts it up; [k] is known absent. *)
let[@inline] push h k p =
  let i = h.len in
  h.keys.(i) <- k;
  h.prio.(i) <- p;
  h.len <- i + 1;
  sift_up h i

let insert h k p =
  check_key h k;
  if h.pos.(k) >= 0 then invalid_arg "Heap.insert: duplicate key";
  push h k p

let decrease h k p =
  if not (mem h k) then invalid_arg "Heap.decrease: absent key";
  let i = h.pos.(k) in
  if p > h.prio.(i) then invalid_arg "Heap.decrease: priority increase";
  h.prio.(i) <- p;
  sift_up h i

(* Loop-free so callers' relax loops can inline it and keep [p] unboxed. *)
let[@inline] insert_or_decrease h k p =
  check_key h k;
  let i = h.pos.(k) in
  if i < 0 then push h k p
  else if p < h.prio.(i) then begin
    h.prio.(i) <- p;
    sift_up h i
  end

let peek_min h = if h.len = 0 then None else Some (h.keys.(0), h.prio.(0))

let clear h =
  for i = 0 to h.len - 1 do
    h.pos.(h.keys.(i)) <- -1
  done;
  h.len <- 0

let pop_min_key h =
  if h.len = 0 then -1
  else begin
    let k = h.keys.(0) in
    let last = h.len - 1 in
    h.len <- last;
    h.pos.(k) <- -1;
    if last > 0 then begin
      h.keys.(0) <- h.keys.(last);
      h.prio.(0) <- h.prio.(last);
      sift_down h 0
    end;
    k
  end

let pop_min h = if h.len = 0 then None else let p = h.prio.(0) in Some (pop_min_key h, p)
