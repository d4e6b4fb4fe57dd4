#include "core/value_planes.h"

#include <cstring>

#include "core/assoc_table.h"

namespace hypermine::core {
namespace {

/// 64-bit FNV-1a over `size` bytes, consumed eight bytes per step (one
/// xor+multiply per word instead of per byte) with a byte-at-a-time tail.
uint64_t ChunkedFnv1a(const void* data, size_t size,
                      uint64_t seed = 0xcbf29ce484222325ull) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t chunk = 0;
    std::memcpy(&chunk, bytes + i, sizeof(chunk));
    hash ^= chunk;
    hash *= kPrime;
  }
  for (; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kPrime;
  }
  return hash;
}

/// ValuePlanes::fingerprint of a database: its dimensions plus every
/// column's bytes, so it changes whenever the packed words would.
uint64_t DatabaseFingerprint(const Database& db) {
  uint64_t dims[3] = {db.num_attributes(), db.num_observations(),
                      db.num_values()};
  uint64_t hash = ChunkedFnv1a(dims, sizeof(dims));
  for (size_t a = 0; a < db.num_attributes(); ++a) {
    const auto& column = db.column(static_cast<AttrId>(a));
    hash = ChunkedFnv1a(column.data(), column.size() * sizeof(ValueId), hash);
  }
  return hash;
}

}  // namespace

bool ValuePlanes::Matches(const Database& db) const {
  return num_attributes == db.num_attributes() &&
         num_observations == db.num_observations() &&
         num_values == db.num_values() &&
         words_per_plane == PlaneWords(db.num_observations()) &&
         words.size() == num_attributes * words_per_column() &&
         fingerprint == DatabaseFingerprint(db);
}

ValuePlanes PackDatabasePlanes(const Database& db) {
  ValuePlanes planes;
  planes.num_attributes = db.num_attributes();
  planes.num_observations = db.num_observations();
  planes.num_values = db.num_values();
  planes.words_per_plane = PlaneWords(db.num_observations());
  planes.fingerprint = DatabaseFingerprint(db);
  planes.words.resize(planes.num_attributes * planes.words_per_column());
  for (size_t a = 0; a < planes.num_attributes; ++a) {
    PackValuePlanes(db.column(static_cast<AttrId>(a)).data(),
                    planes.num_observations, planes.num_values,
                    &planes.words[a * planes.words_per_column()]);
  }
  return planes;
}

}  // namespace hypermine::core
