#include "data/value_dict.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/logging.h"

namespace tdac {

StringArena::StringArena(const StringArena& other)
    : blocks_(other.blocks_), stored_(other.stored_) {
  // head_used_/head_cap_ stay 0: the copy's write head is sealed, so its
  // next Add allocates a private block instead of appending into the tail
  // of a block the original is still writing to.
}

StringArena& StringArena::operator=(const StringArena& other) {
  if (this == &other) return *this;
  blocks_ = other.blocks_;
  stored_ = other.stored_;
  head_used_ = 0;
  head_cap_ = 0;
  return *this;
}

std::string_view StringArena::Add(std::string_view s) {
  if (s.size() > head_cap_ - head_used_ || head_cap_ == 0) {
    const size_t block_size = std::max(kMinBlockBytes, s.size());
    blocks_.push_back(std::shared_ptr<char[]>(new char[block_size]));
    head_used_ = 0;
    head_cap_ = block_size;
  }
  char* dst = blocks_.back().get() + head_used_;
  if (!s.empty()) std::memcpy(dst, s.data(), s.size());
  head_used_ += s.size();
  stored_ += s.size();
  return std::string_view(dst, s.size());
}

ValueId ValueDict::Intern(const ValueRef& v) {
  TDAC_CHECK(!frozen_) << "ValueDict::Intern on a frozen dictionary";
  const ValueId next = static_cast<ValueId>(entries_.size());
  switch (v.kind) {
    case Value::Kind::kString: {
      auto it = string_ids_.find(v.str);
      if (it != string_ids_.end()) return it->second;
      const std::string_view stored = arena_.Add(v.str);
      entries_.push_back(ValueRef::String(stored));
      string_ids_.emplace(stored, next);
      return next;
    }
    case Value::Kind::kInt: {
      // Look up before inserting: a hit must not build (and free) a node.
      auto it = int_ids_.find(v.num);
      if (it != int_ids_.end()) return it->second;
      int_ids_.emplace(v.num, next);
      entries_.push_back(v);
      return next;
    }
    case Value::Kind::kDouble: {
      const double d = v.AsDouble();
      if (std::isnan(d)) {
        // NaN != NaN under Value::operator==, so a NaN payload must never
        // dedup: every occurrence is its own distinct value.
        entries_.push_back(v);
        return next;
      }
      // -0.0 == +0.0 under Value::operator==, so both spellings must map
      // to one id: merge the sign bit out of the lookup key (the entry
      // keeps the first-seen payload, which compares equal either way).
      const uint64_t key = std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);
      auto it = double_ids_.find(key);
      if (it != double_ids_.end()) return it->second;
      double_ids_.emplace(key, next);
      entries_.push_back(v);
      return next;
    }
  }
  TDAC_CHECK(false) << "ValueDict::Intern: unknown value kind";
  return kInvalidId;
}

ValueId ValueDict::Find(const ValueRef& v) const {
  switch (v.kind) {
    case Value::Kind::kString: {
      auto it = string_ids_.find(v.str);
      return it == string_ids_.end() ? kInvalidId : it->second;
    }
    case Value::Kind::kInt: {
      auto it = int_ids_.find(v.num);
      return it == int_ids_.end() ? kInvalidId : it->second;
    }
    case Value::Kind::kDouble: {
      const double d = v.AsDouble();
      if (std::isnan(d)) return kInvalidId;  // nothing compares == to NaN
      const double key = d == 0.0 ? 0.0 : d;
      auto it = double_ids_.find(std::bit_cast<uint64_t>(key));
      return it == double_ids_.end() ? kInvalidId : it->second;
    }
  }
  return kInvalidId;
}

std::string_view ValueDict::StringAt(ValueId id) const {
  const ValueRef& e = entries_[static_cast<size_t>(id)];
  TDAC_CHECK(e.kind == Value::Kind::kString)
      << "ValueDict::StringAt on a non-string id";
  return e.str;
}

void ValueDict::Freeze() {
  TDAC_CHECK(!frozen_) << "ValueDict::Freeze called twice";
  by_rank_.resize(entries_.size());
  std::iota(by_rank_.begin(), by_rank_.end(), 0);
  // Mirror of Value::operator< (kind first, then payload, doubles with NaN
  // after every number), with id as the final tie-break so the order is
  // total even across distinct NaN entries.
  std::sort(by_rank_.begin(), by_rank_.end(), [this](ValueId a, ValueId b) {
    const ValueRef& ea = entries_[static_cast<size_t>(a)];
    const ValueRef& eb = entries_[static_cast<size_t>(b)];
    if (ea.kind != eb.kind) {
      return static_cast<int>(ea.kind) < static_cast<int>(eb.kind);
    }
    switch (ea.kind) {
      case Value::Kind::kString:
        if (ea.str != eb.str) return ea.str < eb.str;
        break;
      case Value::Kind::kInt:
        if (ea.num != eb.num) return ea.num < eb.num;
        break;
      case Value::Kind::kDouble: {
        const double da = ea.AsDouble();
        const double db = eb.AsDouble();
        const bool a_nan = std::isnan(da);
        const bool b_nan = std::isnan(db);
        if (a_nan || b_nan) {
          if (a_nan != b_nan) return !a_nan;
          break;  // two NaNs: fall through to the id tie-break
        }
        if (da != db) return da < db;
        break;
      }
    }
    return a < b;
  });
  ranks_.resize(entries_.size());
  for (size_t r = 0; r < by_rank_.size(); ++r) {
    ranks_[static_cast<size_t>(by_rank_[r])] = static_cast<int32_t>(r);
  }
  frozen_ = true;
}

}  // namespace tdac
