// Activation checkpointing ("recomputation", Chen et al. 2016).
//
// checkpoint(fn, inputs, pure_compute) runs fn's forward pass with
// autograd disabled, so none of fn's internal activations are saved;
// only the *inputs* are stored (and charged to the tracker's byte
// counters). During backward, fn is replayed with autograd enabled to
// rebuild the internal activations, and the subgraph is
// back-propagated immediately.
//
// The paper's two recomputation modes are both built on this primitive:
//  * full activation recomputation — fn is an entire transformer layer,
//    so only the 2sbh layer input is stored (Table 2, last row);
//  * selective activation recomputation — fn is just the attention core
//    (QKᵀ, softmax, softmax-dropout, attention-over-V; Fig 3's red
//    box), so Q/K/V are stored (cheap, 6sbh/t) while the 5as²b/t
//    attention activations are recomputed (§5).
//
// Replay exactness: all stochastic ops in this codebase (dropout) are
// stateless functions of (seed, global element index), so the replay
// reproduces the forward bit-for-bit; tests assert this.
#pragma once

#include <functional>
#include <vector>

#include "autograd/var.h"

namespace mls::ag {

using CheckpointFn = std::function<Var(const std::vector<Var>&)>;

// If grad mode is off (e.g. inside an enclosing checkpoint), this
// degenerates to calling fn directly. Parameter inputs are stored
// uncharged; every other input is charged as a major activation.
//
// `pure_compute` declares that fn issues no collectives (true for the
// attention core, false for a full transformer layer). Such a replay is
// prefetchable: with `overlap_recompute` on, the backward engine may run
// it inside a communication window instead of serially at the node —
// same thread, same RNG sites, same tracker, so numerics are unchanged.
Var checkpoint(const CheckpointFn& fn, const std::vector<Var>& inputs,
               bool pure_compute = false);

}  // namespace mls::ag
