#ifndef HYPERMINE_CORE_VALUE_PLANES_H_
#define HYPERMINE_CORE_VALUE_PLANES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/database.h"

namespace hypermine::core {

/// Every column of a database re-coded as bit planes (see the bit-plane
/// kernel notes in assoc_table.h): the reusable value behind repeated
/// γ-sweeps. Pack once, then hand the same ValuePlanes to any number of
/// BuildAssociationHypergraph calls over the same database.
struct ValuePlanes {
  size_t num_attributes = 0;
  size_t num_observations = 0;
  size_t num_values = 0;
  /// PlaneWords(num_observations), denormalized for consumers of `words`.
  size_t words_per_plane = 0;
  /// Content fingerprint of the source database: its dimensions plus
  /// every column's bytes (attribute names excluded — packed planes do
  /// not depend on them).
  uint64_t fingerprint = 0;
  /// num_attributes x num_values x words_per_plane, column-major like the
  /// database itself.
  std::vector<uint64_t> words;

  size_t words_per_column() const { return num_values * words_per_plane; }
  const uint64_t* planes_of(size_t attr) const {
    return words.data() + attr * words_per_column();
  }

  /// True when these planes were packed from a database with `db`'s exact
  /// content (dimensions and fingerprint) — the reuse precondition the
  /// builder enforces.
  bool Matches(const Database& db) const;
};

/// Packs all columns of `db` (one pass; the builder does the same lazily
/// when no pre-packed planes are supplied).
ValuePlanes PackDatabasePlanes(const Database& db);

}  // namespace hypermine::core

#endif  // HYPERMINE_CORE_VALUE_PLANES_H_
