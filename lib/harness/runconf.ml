type t = {
  name : string;
  bh_bodies : int;
  bh_steps : int;
  fmm_particles : int;
  fmm_p : int;
  procs : int list;
  breakdown_procs : int;
  bh_strip : int;
  fmm_strip : int;
  strip_auto : bool;
  cache_capacity : int;
  repartition : bool;
  route_all : bool;
}

let small =
  {
    name = "small";
    bh_bodies = 2048;
    bh_steps = 1;
    fmm_particles = 2048;
    fmm_p = 13;
    procs = [ 1; 2; 4; 8; 16 ];
    breakdown_procs = 8;
    bh_strip = 50;
    fmm_strip = 50;
    strip_auto = false;
    cache_capacity = 2048;
    repartition = false;
    route_all = false;
  }

let full =
  {
    name = "full";
    bh_bodies = fst Paper.bh_input;
    bh_steps = snd Paper.bh_input;
    fmm_particles = fst Paper.fmm_input;
    fmm_p = snd Paper.fmm_input;
    procs = [ 1; 2; 4; 8; 16; 32; 64 ];
    breakdown_procs = 16;
    bh_strip = 50;
    fmm_strip = 300;
    strip_auto = false;
    cache_capacity = 16384;
    repartition = false;
    route_all = false;
  }
