// Seeded census-like inputs. The benchmark generates every row itself and
// keeps its own copy (one byte per cell), so the checks can recount what
// the program reports without asking the program. The program only ever
// sees the rows, loaded as an in-memory Table, a DiskTable file or CSV
// append lines, and the request lines.
#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace perfbench {

/// splitmix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Zipf(s) over {0, .., n-1} by inverse CDF.
class Zipf {
 public:
  Zipf(uint32_t n, double s);
  uint32_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Shape of a generated table. Column c has cardinality
/// kCardinalities[c % 14] and Zipf exponent kZipf[c % 7]; every column
/// with c % 7 == 6 copies its predecessor's value (mod its cardinality)
/// with probability 0.7, so two-column rules carry real mass.
struct DataSpec {
  uint64_t rows = 0;
  size_t columns = 7;
  uint64_t seed = 1;
};

extern const uint32_t kCardinalities[14];
extern const double kZipf[7];

/// Row-major one-byte-per-cell copy of the generated rows. Column c is
/// named "c<c>" and its value j is the string "v<j>".
struct Dataset {
  size_t columns = 0;
  std::vector<uint32_t> cardinality;
  std::vector<uint8_t> cells;  ///< rows x columns

  uint64_t rows() const { return columns == 0 ? 0 : cells.size() / columns; }
  const uint8_t* row(uint64_t r) const { return cells.data() + r * columns; }
};

/// Draws `spec.rows` rows.
Dataset Generate(const DataSpec& spec);
/// Appends `n` more rows from the same distribution, drawn from `rng`.
void AppendRows(Dataset* data, uint64_t n, Rng& rng);

std::vector<std::string> ColumnNames(size_t columns);
/// An empty table with the schema and every value pre-encoded, so the
/// code of "v<j>" is j.
smartdd::Table PrototypeTable(const Dataset& data);
/// Loads rows [0, rows) into an unfrozen in-memory table.
smartdd::Table LoadTable(const Dataset& data, uint64_t rows);
/// Streams every row into a DiskTable file.
smartdd::Status WriteDiskTable(const Dataset& data, const std::string& path);
/// Row `r` as one CSV record.
std::string CsvRow(const Dataset& data, uint64_t r);

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_
