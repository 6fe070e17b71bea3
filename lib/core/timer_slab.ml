open Dpa_sim

type kind = Request | Update | Custody | Fetch

type handler =
  kind -> id:int -> dst:int -> rto:int -> deadline:int -> int array -> unit

(* One column per field; slot [i]'s action pops slot [i]. Vacant slots sit
   on a stack. *)
type t = {
  engine : Engine.t;
  node : Node.t;
  mutable handler : handler;
  mutable kind : kind array;
  mutable id : int array;
  mutable dst : int array;
  mutable inc : int array;
  mutable rto : int array;
  mutable deadline : int array;
  mutable msg : int array array;
  mutable action : (unit -> unit) array;
  mutable free : int array;
  mutable nfree : int;
}

let create engine node =
  {
    engine;
    node;
    handler = (fun _ ~id:_ ~dst:_ ~rto:_ ~deadline:_ _ -> ());
    kind = [||];
    id = [||];
    dst = [||];
    inc = [||];
    rto = [||];
    deadline = [||];
    msg = [||];
    action = [||];
    free = [||];
    nfree = 0;
  }

let set_handler t h = t.handler <- h

(* Free the slot before the handler runs, so a handler that re-arms may
   take it again. A timer armed by an earlier incarnation dies silently:
   the restart walk re-arms whatever still matters. *)
let pop t i =
  let kind = t.kind.(i)
  and id = t.id.(i)
  and dst = t.dst.(i)
  and inc = t.inc.(i)
  and rto = t.rto.(i)
  and deadline = t.deadline.(i)
  and msg = t.msg.(i) in
  t.msg.(i) <- [||];
  t.free.(t.nfree) <- i;
  t.nfree <- t.nfree + 1;
  if t.node.Node.incarnation = inc then
    t.handler kind ~id ~dst ~rto ~deadline msg

let grow t =
  let cap = Array.length t.id in
  let ncap = max 16 (2 * cap) in
  let widen col fill =
    let c = Array.make ncap fill in
    Array.blit col 0 c 0 cap;
    c
  in
  t.kind <- widen t.kind Request;
  t.id <- widen t.id 0;
  t.dst <- widen t.dst 0;
  t.inc <- widen t.inc 0;
  t.rto <- widen t.rto 0;
  t.deadline <- widen t.deadline 0;
  t.msg <- widen t.msg [||];
  t.action <- widen t.action ignore;
  for i = cap to ncap - 1 do
    t.action.(i) <- (fun () -> pop t i)
  done;
  t.free <- Array.make ncap 0;
  for i = ncap - 1 downto cap do
    t.free.(t.nfree) <- i;
    t.nfree <- t.nfree + 1
  done

let arm t ?at kind ~id ~dst ~rto msg =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  let i = t.free.(t.nfree) in
  let deadline =
    match at with Some d -> d | None -> t.node.Node.clock + rto
  in
  t.kind.(i) <- kind;
  t.id.(i) <- id;
  t.dst.(i) <- dst;
  t.inc.(i) <- t.node.Node.incarnation;
  t.rto.(i) <- rto;
  t.deadline.(i) <- deadline;
  t.msg.(i) <- msg;
  Engine.post t.engine ~kind:Engine.Soft ~time:deadline ~node:t.node.Node.id
    t.action.(i)

let backoff ~rto ~cap = Int.min (2 * rto) cap
let capacity t = Array.length t.id
let armed t = capacity t - t.nfree
