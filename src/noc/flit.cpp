#include "noc/flit.hpp"

namespace pnoc::noc {

std::string toString(FlitType type) {
  switch (type) {
    case FlitType::kHead: return "HEAD";
    case FlitType::kBody: return "BODY";
    case FlitType::kTail: return "TAIL";
    case FlitType::kHeadTail: return "HEAD_TAIL";
  }
  return "?";
}

std::string toString(FlowKind kind) {
  switch (kind) {
    case FlowKind::kNone: return "none";
    case FlowKind::kRequest: return "req";
    case FlowKind::kForward: return "fwd";
    case FlowKind::kReply: return "rep";
  }
  return "?";
}

}  // namespace pnoc::noc
