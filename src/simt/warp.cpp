#include "simt/warp.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "simt/block.h"
#include "simt/device.h"
#include "simt/kernel.h"
#include "simt/san.h"

namespace simt {

namespace {

/// kSanSync: record an invalid-mask / divergent-collective finding
/// before the throw that reports it to the kernel (record-and-throw:
/// the exception carries the story to the launch site, the SanDiag to
/// the report).
void record_mask_diag(BlockState& block, std::uint32_t flat_tid,
                      std::string msg) {
  if (!san_enabled(kSanSync)) return;
  SanDiag d;
  d.kind = SanKind::kInvalidWarpMask;
  d.kernel = block.params().name;
  d.block = block.block_index();
  d.tid_a = flat_tid;
  d.message = std::move(msg);
  d.message += std::string(" (kernel '") + block.params().name + "', block " +
               block.block_index().to_string() + ", thread " +
               std::to_string(flat_tid) + ")";
  San::instance().record(std::move(d));
}

}  // namespace

WarpState::WarpState(BlockState& block, std::uint32_t warp_id, std::uint32_t width)
    : block_(block), warp_id_(warp_id), width_(width) {
  member_mask_ = width >= 64 ? ~0ull : ((1ull << width) - 1);
  live_mask_ = member_mask_;
}

std::uint64_t WarpState::collective(ThreadCtx& ctx, WarpOp op,
                                    std::uint64_t value, std::uint64_t param,
                                    LaneMask mask) {
  // The kDirect error fires before any rendezvous state moves.
  block_.require_fiber(ctx, "warp collective");
  // Rendezvous lanes materialize on the warp's first collective: a
  // block that never uses warp ops pays nothing for them.
  if (value_.empty()) {
    value_.resize(width_);
    param_.resize(width_);
    result_.resize(width_);
  }
  const std::uint32_t lane = ctx.lane;
  const LaneMask bit = 1ull << lane;
  const LaneMask requested = mask;
  mask &= member_mask_;
  if (mask == 0) {
    record_mask_diag(block_, ctx.flat_tid,
                     "warp collective: empty lane mask");
    throw std::invalid_argument("warp collective: empty lane mask");
  }
  if ((mask & bit) == 0) {
    std::string what = "warp collective: calling lane " +
                       std::to_string(lane) + " not in its own mask";
    record_mask_diag(block_, ctx.flat_tid, what);
    throw std::logic_error(what);
  }
  // kSanSync: a *partial* mask that explicitly names an already-exited
  // lane can never rendezvous — CUDA hangs; we diagnose. The default
  // full mask (~0ull, or all member lanes) is exempt: "everyone still
  // here" is its documented meaning, and exited lanes stop counting.
  if (san_enabled(kSanSync) && requested != ~0ull && mask != member_mask_ &&
      (mask & ~live_mask_) != 0) {
    const auto dead = mask & ~live_mask_;
    std::string what =
        "warp collective: mask names exited lane(s) (mask 0x" +
        [&] {
          char b[24];
          std::snprintf(b, sizeof b, "%llx, dead 0x%llx",
                        static_cast<unsigned long long>(requested),
                        static_cast<unsigned long long>(dead));
          return std::string(b);
        }() +
        ") — the collective could never complete on real hardware";
    record_mask_diag(block_, ctx.flat_tid, what);
    throw std::logic_error(what);
  }

  if (arrived_ == 0) {
    op_ = op;
    op_mask_ = mask & live_mask_;
  } else {
    if (op != op_) {
      std::string what =
          "warp collective: lanes of one warp reached different collective "
          "operations (divergent collectives are not supported)";
      record_mask_diag(block_, ctx.flat_tid, what);
      throw std::logic_error(what);
    }
    if ((mask & live_mask_) != op_mask_) {
      std::string what =
          "warp collective: lanes passed different masks to one collective";
      record_mask_diag(block_, ctx.flat_tid, what);
      throw std::logic_error(what);
    }
  }
  value_[lane] = value;
  param_[lane] = param;
  arrived_ |= bit;

  if (arrived_ == op_mask_) {
    release();
    return result_[lane];
  }
  block_.wait_warp(ctx);
  return result_[lane];
}

void WarpState::release() {
  const LaneMask participants = op_mask_;
  switch (op_) {
    case WarpOp::kSync:
      block_.counters_.warp_syncs++;
      break;
    case WarpOp::kBallot: {
      LaneMask ballot = 0;
      for (std::uint32_t l = 0; l < width_; ++l)
        if ((participants >> l) & 1 && value_[l] != 0) ballot |= 1ull << l;
      for (std::uint32_t l = 0; l < width_; ++l)
        if ((participants >> l) & 1) result_[l] = ballot;
      block_.counters_.warp_collectives++;
      break;
    }
    case WarpOp::kAny:
    case WarpOp::kAll: {
      bool any = false, all = true;
      for (std::uint32_t l = 0; l < width_; ++l) {
        if (((participants >> l) & 1) == 0) continue;
        if (value_[l] != 0) any = true;
        else all = false;
      }
      const std::uint64_t r = op_ == WarpOp::kAny ? any : all;
      for (std::uint32_t l = 0; l < width_; ++l)
        if ((participants >> l) & 1) result_[l] = r;
      block_.counters_.warp_collectives++;
      break;
    }
    case WarpOp::kShflIdx:
    case WarpOp::kShflUp:
    case WarpOp::kShflDown:
    case WarpOp::kShflXor: {
      for (std::uint32_t l = 0; l < width_; ++l) {
        if (((participants >> l) & 1) == 0) continue;
        std::int64_t src = l;
        switch (op_) {
          case WarpOp::kShflIdx:
            // CUDA semantics: srcLane is taken modulo the warp width.
            src = static_cast<std::int64_t>(param_[l] % width_);
            break;
          case WarpOp::kShflUp:
            src = static_cast<std::int64_t>(l) -
                  static_cast<std::int64_t>(param_[l]);
            break;
          case WarpOp::kShflDown:
            src = static_cast<std::int64_t>(l) +
                  static_cast<std::int64_t>(param_[l]);
            break;
          case WarpOp::kShflXor:
            src = static_cast<std::int64_t>(l ^ param_[l]);
            break;
          default: break;
        }
        // Out-of-range or non-participating source keeps the lane's own
        // value (the defined kernel-language fallback for up/down; for
        // idx/xor reading an inactive lane is UB in CUDA — own value is
        // our deterministic choice, documented).
        if (src < 0 || src >= static_cast<std::int64_t>(width_) ||
            ((participants >> src) & 1) == 0) {
          result_[l] = value_[l];
        } else {
          result_[l] = value_[src];
        }
      }
      block_.counters_.warp_collectives++;
      break;
    }
    case WarpOp::kReduceAdd:
    case WarpOp::kReduceMin:
    case WarpOp::kReduceMax: {
      // Payloads are int64 two's-complement; add wraps, min/max are
      // signed (CUDA's unsigned variants bit-cast cleanly for values
      // below 2^63, which the kl/ompx layers document).
      std::int64_t acc = 0;
      bool first = true;
      for (std::uint32_t l = 0; l < width_; ++l) {
        if (((participants >> l) & 1) == 0) continue;
        const auto v = static_cast<std::int64_t>(value_[l]);
        if (first) {
          acc = v;
          first = false;
        } else if (op_ == WarpOp::kReduceAdd) {
          acc = static_cast<std::int64_t>(static_cast<std::uint64_t>(acc) +
                                          static_cast<std::uint64_t>(v));
        } else if (op_ == WarpOp::kReduceMin) {
          acc = std::min(acc, v);
        } else {
          acc = std::max(acc, v);
        }
      }
      for (std::uint32_t l = 0; l < width_; ++l)
        if ((participants >> l) & 1)
          result_[l] = static_cast<std::uint64_t>(acc);
      block_.counters_.warp_collectives++;
      break;
    }
    case WarpOp::kNone:
      throw std::logic_error("warp release with no pending op");
  }
  arrived_ = 0;
  op_ = WarpOp::kNone;
  op_mask_ = 0;
  // Wake exactly this warp's suspended waiters (the releasing lane keeps
  // running).
  block_.notify_warp_release(*this);
}

void WarpState::on_lane_exit(std::uint32_t lane) {
  const LaneMask bit = 1ull << lane;
  live_mask_ &= ~bit;
  if (arrived_ != 0 && (op_mask_ & bit) != 0 && (arrived_ & bit) == 0) {
    std::string what =
        "thread exited its kernel while named in a pending warp collective "
        "mask (warp " + std::to_string(warp_id_) + ", lane " +
        std::to_string(lane) + ")";
    record_mask_diag(block_, warp_id_ * block_.device().config().warp_size +
                                 lane,
                     what);
    throw std::logic_error(what);
  }
}

}  // namespace simt
