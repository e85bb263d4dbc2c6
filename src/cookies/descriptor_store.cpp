#include "cookies/descriptor_store.h"

#include <cstring>
#include <utility>

namespace nnn::cookies {

void DescriptorStore::upsert(const CookieDescriptor& descriptor) {
  Record& record = insert_record(descriptor.cookie_id);
  set_key(record, util::BytesView(descriptor.key));
  record.profile = intern_profile(descriptor);
  if (descriptor.attributes.expires_at.has_value()) {
    record.has_expiry = true;
    record.expires_at = *descriptor.attributes.expires_at;
  } else {
    record.has_expiry = false;
    record.expires_at = 0;
  }
  record.revoked = false;
}

void DescriptorStore::revoke(CookieId id) {
  if (Record* record = find_mut(id)) {
    record->revoked = true;
    return;
  }
  // Revoke-before-sync tombstone: no key, no profile — the id just
  // verifies as revoked rather than unknown.
  insert_record(id).revoked = true;
}

bool DescriptorStore::erase(CookieId id) {
  uint32_t* slot_entry = index_.find(hash_id(id), index_matcher(id));
  if (slot_entry == nullptr) return false;
  const uint32_t slot = *slot_entry;
  release_spill(records_[slot]);
  index_.erase_element(slot_entry);
  const uint32_t last = static_cast<uint32_t>(records_.size() - 1);
  if (slot != last) {
    records_[slot] = std::move(records_[last]);
    // Re-point the moved record's index entry at its new slot.
    uint32_t* moved = index_.find(hash_id(records_[slot].id),
                                  index_matcher(records_[slot].id));
    *moved = slot;
  }
  records_.pop_back();
  return true;
}

const DescriptorStore::Record* DescriptorStore::find(CookieId id) const {
  const uint32_t* slot = index_.find(hash_id(id), index_matcher(id));
  return slot == nullptr ? nullptr : &records_[*slot];
}

DescriptorStore::Record* DescriptorStore::find_mut(CookieId id) {
  uint32_t* slot = index_.find(hash_id(id), index_matcher(id));
  return slot == nullptr ? nullptr : &records_[*slot];
}

util::BytesView DescriptorStore::key_of(const Record& record) const {
  if (record.spill != kNoSpill) {
    return util::BytesView(spill_keys_[record.spill]);
  }
  return util::BytesView(record.key, record.key_len);
}

CookieDescriptor DescriptorStore::materialize(const Record& record) const {
  CookieDescriptor descriptor;
  descriptor.cookie_id = record.id;
  const util::BytesView key = key_of(record);
  descriptor.key.assign(key.begin(), key.end());
  if (record.profile != kNoProfile) {
    const Profile& profile = profiles_[record.profile];
    descriptor.service_data = profile.service_data;
    descriptor.attributes = profile.attributes;
  }
  if (record.has_expiry) {
    descriptor.attributes.expires_at = record.expires_at;
  }
  return descriptor;
}

void DescriptorStore::clear() {
  records_.clear();
  index_.clear();
  profiles_.clear();
  intern_.clear();
  last_profile_ = kNoProfile;
  spill_keys_.clear();
  spill_free_.clear();
}

void DescriptorStore::reserve(size_t n) {
  records_.reserve(n);
  index_.reserve(n, index_hasher());
}

size_t DescriptorStore::memory_bytes() const {
  size_t bytes = records_.capacity() * sizeof(Record) +
                 index_.memory_bytes() + intern_.memory_bytes();
  for (const util::Bytes& key : spill_keys_) bytes += key.capacity();
  bytes += spill_keys_.capacity() * sizeof(util::Bytes);
  // Interned profiles: count the string payloads, attribute vectors
  // and extras approximately (they are shared across all records).
  for (const Profile& profile : profiles_) {
    bytes += sizeof(Profile) + profile.service_data.capacity() +
             profile.attributes.transports.capacity() * sizeof(Transport);
    for (const auto& [k, v] : profile.attributes.extra) {
      bytes += k.capacity() + v.capacity() + 64;
    }
  }
  return bytes;
}

state::ProbeStats DescriptorStore::probe_stats(size_t max_samples) const {
  return index_.probe_stats(index_hasher(), max_samples);
}

DescriptorStore::Record& DescriptorStore::insert_record(CookieId id) {
  const auto [slot_entry, inserted] = index_.find_or_insert(
      hash_id(id), index_matcher(id), index_hasher(), [&] {
        records_.emplace_back();
        return static_cast<uint32_t>(records_.size() - 1);
      });
  Record& record = records_[*slot_entry];
  if (!inserted) {
    // Replacing in place: drop old spill before the caller overwrites.
    release_spill(record);
    record = Record{};
  }
  record.id = id;
  return record;
}

void DescriptorStore::set_key(Record& record, util::BytesView key) {
  if (key.size() <= kInlineKeyBytes) {
    std::memcpy(record.key, key.data(), key.size());
    record.key_len = static_cast<uint8_t>(key.size());
    record.spill = kNoSpill;
    return;
  }
  record.key_len = 0;
  if (!spill_free_.empty()) {
    record.spill = spill_free_.back();
    spill_free_.pop_back();
  } else {
    record.spill = static_cast<uint32_t>(spill_keys_.size());
    spill_keys_.emplace_back();
  }
  spill_keys_[record.spill].assign(key.begin(), key.end());
}

void DescriptorStore::release_spill(Record& record) {
  if (record.spill == kNoSpill) return;
  spill_keys_[record.spill].clear();
  spill_free_.push_back(record.spill);
  record.spill = kNoSpill;
}

uint32_t DescriptorStore::intern_profile(const CookieDescriptor& descriptor) {
  // Descriptors arrive in runs of one service tier, so first compare
  // with the last profile interned, expiry aligned (it lives per
  // record). A match is the profile the serialized identity below
  // would find; only a mismatch pays for the JSON dump.
  if (last_profile_ != kNoProfile) {
    Profile& last = profiles_[last_profile_];
    last.attributes.expires_at = descriptor.attributes.expires_at;
    const bool same = last.service_data == descriptor.service_data &&
                      last.attributes == descriptor.attributes;
    last.attributes.expires_at.reset();
    if (same) return last_profile_;
  }
  // Identity = service_data + attributes with expires_at stripped.
  // The serialized form is deterministic (json::Object is an ordered
  // map).
  Attributes shared = descriptor.attributes;
  shared.expires_at.reset();
  std::string identity = descriptor.service_data;
  identity.push_back('\0');
  identity += shared.to_json().dump();
  const auto [item, inserted] = intern_.try_emplace(identity);
  if (inserted) {
    profiles_.push_back(Profile{descriptor.service_data, std::move(shared)});
    item->value = static_cast<uint32_t>(profiles_.size() - 1);
  }
  last_profile_ = item->value;
  return last_profile_;
}

}  // namespace nnn::cookies
