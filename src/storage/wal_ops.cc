#include "storage/wal_ops.h"

#include "common/coding.h"

namespace neosi {

WalOp WalOp::CreateNode(NodeId id, std::vector<LabelId> labels,
                        PropertyMap props) {
  WalOp op;
  op.type = WalOpType::kCreateNode;
  op.id = id;
  op.labels = std::move(labels);
  op.props = std::move(props);
  return op;
}

WalOp WalOp::DeleteNode(NodeId id) {
  WalOp op;
  op.type = WalOpType::kDeleteNode;
  op.id = id;
  return op;
}

WalOp WalOp::NodeState(NodeId id, std::vector<LabelId> labels,
                       PropertyMap props) {
  WalOp op;
  op.type = WalOpType::kNodeState;
  op.id = id;
  op.labels = std::move(labels);
  op.props = std::move(props);
  return op;
}

WalOp WalOp::RelState(RelId id, PropertyMap props) {
  WalOp op;
  op.type = WalOpType::kRelState;
  op.id = id;
  op.props = std::move(props);
  return op;
}

WalOp WalOp::CreateRel(RelId id, NodeId src, NodeId dst, RelTypeId type,
                       PropertyMap props) {
  WalOp op;
  op.type = WalOpType::kCreateRel;
  op.id = id;
  op.src = src;
  op.dst = dst;
  op.rel_type = type;
  op.props = std::move(props);
  return op;
}

WalOp WalOp::DeleteRel(RelId id) {
  WalOp op;
  op.type = WalOpType::kDeleteRel;
  op.id = id;
  return op;
}

WalOp WalOp::CreateToken(TokenKind kind, uint32_t id, std::string name) {
  WalOp op;
  op.type = WalOpType::kCreateToken;
  op.id = id;
  op.token_kind = kind;
  op.name = std::move(name);
  return op;
}

WalOp WalOp::PurgeNode(NodeId id) {
  WalOp op;
  op.type = WalOpType::kPurgeNode;
  op.id = id;
  return op;
}

WalOp WalOp::Checkpoint(Lsn stable_lsn) {
  WalOp op;
  op.type = WalOpType::kCheckpoint;
  op.id = stable_lsn;
  return op;
}

WalOp WalOp::PurgeRel(RelId id, NodeId src, NodeId dst, RelId src_prev,
                      RelId src_next, RelId dst_prev, RelId dst_next) {
  WalOp op;
  op.type = WalOpType::kPurgeRel;
  op.id = id;
  op.src = src;
  op.dst = dst;
  op.src_prev = src_prev;
  op.src_next = src_next;
  op.dst_prev = dst_prev;
  op.dst_next = dst_next;
  return op;
}

namespace {

void PutProps(std::string* dst, const PropertyMap& props) {
  PutVarint64(dst, props.size());
  for (const auto& [key, value] : props) {
    PutVarint32(dst, key);
    value.EncodeTo(dst);
  }
}

Status GetProps(Slice* input, PropertyMap* out) {
  out->clear();
  uint64_t n;
  if (!GetVarint64(input, &n)) return Status::Corruption("wal: props count");
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t key;
    if (!GetVarint32(input, &key)) return Status::Corruption("wal: prop key");
    PropertyValue value;
    NEOSI_RETURN_IF_ERROR(PropertyValue::DecodeFrom(input, &value));
    (*out)[key] = std::move(value);
  }
  return Status::OK();
}

}  // namespace

void WalOp::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(type));
  PutVarint64(dst, id);
  switch (type) {
    case WalOpType::kCreateNode:
    case WalOpType::kNodeState:
      PutVarint64(dst, labels.size());
      for (LabelId label : labels) PutVarint32(dst, label);
      PutProps(dst, props);
      break;
    case WalOpType::kRelState:
      PutProps(dst, props);
      break;
    case WalOpType::kDeleteNode:
    case WalOpType::kDeleteRel:
      break;
    case WalOpType::kCreateRel:
      PutVarint64(dst, src);
      PutVarint64(dst, this->dst);
      PutVarint32(dst, rel_type);
      PutProps(dst, props);
      break;
    case WalOpType::kCreateToken:
      dst->push_back(static_cast<char>(token_kind));
      PutLengthPrefixedSlice(dst, Slice(name));
      break;
    case WalOpType::kPurgeNode:
    case WalOpType::kCheckpoint:
      break;
    case WalOpType::kPurgeRel:
      PutVarint64(dst, src);
      PutVarint64(dst, this->dst);
      PutVarint64(dst, src_prev);
      PutVarint64(dst, src_next);
      PutVarint64(dst, dst_prev);
      PutVarint64(dst, dst_next);
      break;
  }
}

Status WalOp::DecodeFrom(Slice* input, WalOp* out) {
  if (input->empty()) return Status::Corruption("wal op: empty");
  out->type = static_cast<WalOpType>((*input)[0]);
  input->remove_prefix(1);
  if (!GetVarint64(input, &out->id)) return Status::Corruption("wal op: id");
  switch (out->type) {
    case WalOpType::kCreateNode:
    case WalOpType::kNodeState: {
      uint64_t n;
      if (!GetVarint64(input, &n)) return Status::Corruption("wal: labels");
      out->labels.resize(n);
      for (uint64_t i = 0; i < n; ++i) {
        if (!GetVarint32(input, &out->labels[i])) {
          return Status::Corruption("wal: label id");
        }
      }
      return GetProps(input, &out->props);
    }
    case WalOpType::kRelState:
      return GetProps(input, &out->props);
    case WalOpType::kDeleteNode:
    case WalOpType::kDeleteRel:
      return Status::OK();
    case WalOpType::kCreateRel: {
      if (!GetVarint64(input, &out->src)) {
        return Status::Corruption("wal: rel src");
      }
      if (!GetVarint64(input, &out->dst)) {
        return Status::Corruption("wal: rel dst");
      }
      if (!GetVarint32(input, &out->rel_type)) {
        return Status::Corruption("wal: rel type");
      }
      return GetProps(input, &out->props);
    }
    case WalOpType::kCreateToken: {
      if (input->empty()) return Status::Corruption("wal: token kind");
      out->token_kind = static_cast<TokenKind>((*input)[0]);
      input->remove_prefix(1);
      Slice name;
      if (!GetLengthPrefixedSlice(input, &name)) {
        return Status::Corruption("wal: token name");
      }
      out->name = name.ToString();
      return Status::OK();
    }
    case WalOpType::kPurgeNode:
    case WalOpType::kCheckpoint:
      return Status::OK();
    case WalOpType::kPurgeRel: {
      if (!GetVarint64(input, &out->src) || !GetVarint64(input, &out->dst) ||
          !GetVarint64(input, &out->src_prev) ||
          !GetVarint64(input, &out->src_next) ||
          !GetVarint64(input, &out->dst_prev) ||
          !GetVarint64(input, &out->dst_next)) {
        return Status::Corruption("wal: purge rel fields");
      }
      return Status::OK();
    }
  }
  return Status::Corruption("wal op: unknown type byte");
}

void WalRecord::EncodeTo(std::string* dst) const {
  PutVarint64(dst, txn_id);
  PutVarint64(dst, commit_ts);
  PutVarint64(dst, ops.size());
  for (const WalOp& op : ops) op.EncodeTo(dst);
  // Optional trailer: present only when non-zero so records without a
  // publication hint stay byte-identical to the pre-replication format.
  if (publish_ts != kNoTimestamp) PutVarint64(dst, publish_ts);
}

Status WalRecord::DecodeFrom(Slice input, WalRecord* out) {
  if (!GetVarint64(&input, &out->txn_id)) {
    return Status::Corruption("wal record: txn id");
  }
  if (!GetVarint64(&input, &out->commit_ts)) {
    return Status::Corruption("wal record: commit ts");
  }
  uint64_t n;
  if (!GetVarint64(&input, &n)) return Status::Corruption("wal record: count");
  out->ops.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    NEOSI_RETURN_IF_ERROR(WalOp::DecodeFrom(&input, &out->ops[i]));
  }
  out->publish_ts = kNoTimestamp;
  if (!input.empty() && !GetVarint64(&input, &out->publish_ts)) {
    return Status::Corruption("wal record: publish ts");
  }
  if (!input.empty()) {
    return Status::Corruption("wal record: trailing bytes");
  }
  return Status::OK();
}

}  // namespace neosi
