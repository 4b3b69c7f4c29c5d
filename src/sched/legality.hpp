// Forwarder kept only because perfbench/ (frozen by BENCHMARK.json) includes
// this header: the one legality engine is analysis::require_legal. Delete it
// with the next benchmark change (and its check_layering.sh exemption).
#pragma once

#include "analysis/verifier.hpp"

namespace rsp::sched {
using analysis::require_legal;
}  // namespace rsp::sched
