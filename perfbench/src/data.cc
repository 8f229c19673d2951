#include "data.h"

#include <algorithm>
#include <cmath>

#include "storage/disk_table.h"

namespace perfbench {

const uint32_t kCardinalities[14] = {2, 5, 3, 9, 4, 12, 6,
                                     2, 17, 3, 7, 25, 4, 10};
const double kZipf[7] = {0.6, 1.1, 0.8, 1.3, 0.9, 1.2, 1.0};

Zipf::Zipf(uint32_t n, double s) : cdf_(n) {
  double total = 0;
  for (uint32_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint32_t Zipf::Draw(Rng& rng) const {
  const double u = rng.Uniform();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint32_t>(it - cdf_.begin());
}

namespace {

std::vector<Zipf> Samplers(const Dataset& data) {
  std::vector<Zipf> out;
  for (size_t c = 0; c < data.columns; ++c) {
    out.emplace_back(data.cardinality[c], kZipf[c % 7]);
  }
  return out;
}

void DrawRows(Dataset* data, uint64_t n, Rng& rng,
              const std::vector<Zipf>& zipf) {
  const size_t cols = data->columns;
  const size_t begin = data->cells.size();
  data->cells.resize(begin + n * cols);
  uint8_t* out = data->cells.data() + begin;
  for (uint64_t r = 0; r < n; ++r, out += cols) {
    for (size_t c = 0; c < cols; ++c) {
      uint32_t v = zipf[c].Draw(rng);
      if (c % 7 == 6 && rng.Uniform() < 0.7) {
        v = out[c - 1] % data->cardinality[c];
      }
      out[c] = static_cast<uint8_t>(v);
    }
  }
}

}  // namespace

Dataset Generate(const DataSpec& spec) {
  Dataset data;
  data.columns = spec.columns;
  for (size_t c = 0; c < spec.columns; ++c) {
    data.cardinality.push_back(kCardinalities[c % 14]);
  }
  Rng rng(spec.seed * 0x2545F4914F6CDD1DULL + 17);
  DrawRows(&data, spec.rows, rng, Samplers(data));
  return data;
}

void AppendRows(Dataset* data, uint64_t n, Rng& rng) {
  DrawRows(data, n, rng, Samplers(*data));
}

std::vector<std::string> ColumnNames(size_t columns) {
  std::vector<std::string> names;
  for (size_t c = 0; c < columns; ++c) names.push_back("c" + std::to_string(c));
  return names;
}

smartdd::Table PrototypeTable(const Dataset& data) {
  smartdd::Table table(ColumnNames(data.columns));
  for (size_t c = 0; c < data.columns; ++c) {
    for (uint32_t j = 0; j < data.cardinality[c]; ++j) {
      table.EncodeValue(c, "v" + std::to_string(j));
    }
  }
  return table;
}

smartdd::Table LoadTable(const Dataset& data, uint64_t rows) {
  smartdd::Table table = PrototypeTable(data);
  std::vector<uint32_t> codes(data.columns);
  for (uint64_t r = 0; r < rows; ++r) {
    const uint8_t* row = data.row(r);
    for (size_t c = 0; c < data.columns; ++c) codes[c] = row[c];
    table.AppendRow(codes);
  }
  return table;
}

smartdd::Status WriteDiskTable(const Dataset& data, const std::string& path) {
  smartdd::Table prototype = PrototypeTable(data);
  auto writer = smartdd::DiskTableWriter::Create(prototype, path);
  if (!writer.ok()) return writer.status();
  std::vector<uint32_t> codes(data.columns);
  for (uint64_t r = 0; r < data.rows(); ++r) {
    const uint8_t* row = data.row(r);
    for (size_t c = 0; c < data.columns; ++c) codes[c] = row[c];
    SMARTDD_RETURN_IF_ERROR((*writer)->AppendRow(codes.data(), nullptr));
  }
  return (*writer)->Finish();
}

std::string CsvRow(const Dataset& data, uint64_t r) {
  std::string out;
  const uint8_t* row = data.row(r);
  for (size_t c = 0; c < data.columns; ++c) {
    if (c > 0) out += ',';
    out += 'v';
    out += std::to_string(row[c]);
  }
  return out;
}

}  // namespace perfbench
