// Self-test of the benchmark's checker: a real answer from the program
// must pass, and the same answer with one mass or one marginal mass
// altered must be rejected. Exits 0 when every case behaves.
#include <cstdio>
#include <string>

#include "api/service.h"
#include "checker.h"
#include "data.h"
#include "explore/engine.h"
#include "weights/standard_weights.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// Adds `delta` to `field` of node `id` in a response envelope.
std::string Alter(const std::string& body, int id, const std::string& field,
                  double delta) {
  const size_t node = body.find("{\"id\":" + std::to_string(id) + ",");
  const size_t at = body.find("\"" + field + "\":", node);
  const size_t begin = at + field.size() + 3;
  const size_t end = body.find(',', begin);
  const double value = std::strtod(body.c_str() + begin, nullptr);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value + delta);
  return body.substr(0, begin) + buf + body.substr(end);
}

std::string Check(perfbench::Checker& checker, const std::string& body,
                  uint64_t rows) {
  perfbench::Tree tree;
  std::string err = perfbench::ParseEnvelope(body, 7, &tree, nullptr);
  if (err.empty()) err = checker.CheckExact(tree, rows);
  if (err.empty()) err = checker.CheckBestPick(tree, 0, 3, rows, std::nullopt);
  return err;
}

}  // namespace

int main() {
  const perfbench::Dataset data = perfbench::Generate({5000, 7, 42});
  smartdd::Table table = perfbench::LoadTable(data, data.rows());
  table.Freeze();
  smartdd::SizeWeight weight;
  auto engine = smartdd::ExplorationEngine::Create(table, weight);
  smartdd::api::ExplorationService service;
  if (!engine.ok() || !service.AddEngine("t", engine->get()).ok()) return 2;
  const std::string opened = service.ServeLine("open k=3 mw=3");
  const std::string token = opened.substr(opened.find("\"session\":\"") + 11, 16);
  const std::string body = service.ServeLine("expand " + token + " 0");

  {
    perfbench::Checker checker(data);
    Expect(Check(checker, body, data.rows()).empty(), "a real answer passes");
  }
  {
    perfbench::Checker checker(data);
    Expect(!Check(checker, Alter(body, 1, "mass", 1), data.rows()).empty(),
           "an altered mass is rejected");
  }
  {
    perfbench::Checker checker(data);
    Expect(!Check(checker, Alter(body, 2, "marginal_mass", -1), data.rows()).empty(),
           "an altered marginal mass is rejected");
  }
  {
    perfbench::Checker checker(data);
    Expect(!Check(checker, body, data.rows() - 1).empty(),
           "an answer over other rows is rejected");
  }
  return failures == 0 ? 0 : 1;
}
