#include "checker.h"

#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "json.h"

namespace perfbench {

const TreeNode* Tree::Find(int id) const {
  for (const TreeNode& n : nodes) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

namespace {

std::string Describe(const TreeNode& n) {
  std::string out = "(";
  for (size_t c = 0; c < n.cells.size(); ++c) {
    if (c > 0) out += ",";
    out += n.cells[c] < 0 ? "?" : "v" + std::to_string(n.cells[c]);
  }
  return out + ")";
}

std::string Mismatch(const char* what, const TreeNode& n, double reported,
                     double expected) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s of node %d %s: reported %.17g, counted %.17g",
                what, n.id, Describe(n).c_str(), reported, expected);
  return buf;
}

std::string ListKey(const TreeNode& parent, const std::vector<const TreeNode*>& kids) {
  std::string key = Describe(parent);
  for (const TreeNode* k : kids) {
    key += Describe(*k);
    key += std::to_string(k->marginal);
  }
  return key;
}

}  // namespace

std::string ParseEnvelope(std::string_view body, size_t columns, Tree* tree,
                          std::string* token) {
  std::optional<Json> doc = ParseJson(body);
  if (!doc || doc->kind != Json::Kind::kObject) {
    return "response is not a JSON object: " + std::string(body.substr(0, 200));
  }
  if (!doc->Bool("ok")) {
    return "error response: " + std::string(body.substr(0, 300));
  }
  if (token != nullptr) *token = doc->Str("session");
  const Json* t = doc->Find("tree");
  if (t == nullptr || tree == nullptr) return "";
  const Json* cols = t->Find("columns");
  const Json* nodes = t->Find("nodes");
  if (cols == nullptr || nodes == nullptr || cols->array.size() != columns) {
    return "tree without the expected columns";
  }
  for (size_t c = 0; c < columns; ++c) {
    if (cols->array[c].string != "c" + std::to_string(c)) {
      return "unexpected column name " + cols->array[c].string;
    }
  }
  tree->nodes.clear();
  for (const Json& jn : nodes->array) {
    TreeNode n;
    n.id = static_cast<int>(jn.Num("id", -1));
    n.mass = jn.Num("mass");
    n.marginal = jn.Num("marginal_mass");
    n.weight = jn.Num("weight");
    n.ci = jn.Num("ci");
    n.exact = jn.Bool("exact");
    n.parent = static_cast<int>(jn.Num("parent", -1));
    const Json* cells = jn.Find("cells");
    const Json* kids = jn.Find("children");
    if (cells == nullptr || cells->array.size() != columns || kids == nullptr) {
      return "malformed node in tree";
    }
    for (const Json& cell : cells->array) {
      if (cell.string == "?") {
        n.cells.push_back(-1);
      } else if (cell.string.size() > 1 && cell.string[0] == 'v') {
        n.cells.push_back(std::atoi(cell.string.c_str() + 1));
      } else {
        return "unknown cell value " + cell.string;
      }
    }
    for (const Json& k : kids->array) n.children.push_back(static_cast<int>(k.number));
    tree->nodes.push_back(std::move(n));
  }
  if (tree->nodes.empty() || tree->nodes[0].parent != -1) {
    return "tree without a root";
  }
  return "";
}

bool Checker::Covers(const std::vector<int>& cells, const uint8_t* row) const {
  for (size_t c = 0; c < cells.size(); ++c) {
    if (cells[c] >= 0 && row[c] != cells[c]) return false;
  }
  return true;
}

std::vector<uint64_t> Checker::Counts(
    const std::vector<const std::vector<int>*>& rules, uint64_t rows) {
  std::vector<uint64_t> out(rules.size(), 0);
  std::vector<size_t> todo;
  for (size_t i = 0; i < rules.size(); ++i) {
    auto it = counts_.find({rows, *rules[i]});
    if (it != counts_.end()) {
      out[i] = it->second;
    } else {
      todo.push_back(i);
    }
  }
  if (todo.empty()) return out;
  for (uint64_t r = 0; r < rows; ++r) {
    const uint8_t* row = data_.row(r);
    for (size_t i : todo) out[i] += Covers(*rules[i], row) ? 1 : 0;
  }
  for (size_t i : todo) counts_[{rows, *rules[i]}] = out[i];
  return out;
}

std::string Checker::CheckExact(const Tree& tree, uint64_t rows) {
  std::vector<const std::vector<int>*> rules;
  for (const TreeNode& n : tree.nodes) rules.push_back(&n.cells);
  const std::vector<uint64_t> counts = Counts(rules, rows);
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const TreeNode& n = tree.nodes[i];
    if (!n.exact) return Mismatch("exactness flag", n, 0, 1);
    if (n.mass != static_cast<double>(counts[i])) {
      return Mismatch("mass", n, n.mass, static_cast<double>(counts[i]));
    }
    double size = 0;
    for (int v : n.cells) size += v >= 0 ? 1 : 0;
    if (n.weight != size) return Mismatch("size weight", n, n.weight, size);
  }
  for (const TreeNode& parent : tree.nodes) {
    if (parent.children.empty()) continue;
    std::vector<const TreeNode*> kids;
    for (int id : parent.children) {
      const TreeNode* k = tree.Find(id);
      if (k == nullptr || k->parent != parent.id) {
        return "child list of node " + std::to_string(parent.id) +
               " names a node that is not its child";
      }
      kids.push_back(k);
    }
    const std::string key = std::to_string(rows) + ListKey(parent, kids);
    if (lists_checked_.count(key) != 0) continue;
    std::vector<uint64_t> marginal(kids.size(), 0);
    uint64_t covered = 0;
    for (uint64_t r = 0; r < rows; ++r) {
      const uint8_t* row = data_.row(r);
      if (!Covers(parent.cells, row)) continue;
      for (size_t i = 0; i < kids.size(); ++i) {
        if (Covers(kids[i]->cells, row)) {
          ++marginal[i];
          ++covered;
          break;
        }
      }
    }
    double reported_sum = 0;
    for (size_t i = 0; i < kids.size(); ++i) {
      for (size_t c = 0; c < parent.cells.size(); ++c) {
        if (parent.cells[c] >= 0 && kids[i]->cells[c] != parent.cells[c]) {
          return "node " + std::to_string(kids[i]->id) +
                 " is not a super-rule of its parent";
        }
      }
      if (kids[i]->marginal != static_cast<double>(marginal[i])) {
        return Mismatch("marginal mass", *kids[i], kids[i]->marginal,
                        static_cast<double>(marginal[i]));
      }
      reported_sum += kids[i]->marginal;
    }
    if (reported_sum != static_cast<double>(covered)) {
      return Mismatch("sum of sibling marginals", parent, reported_sum,
                      static_cast<double>(covered));
    }
    lists_checked_.insert(key);
  }
  return "";
}

std::string Checker::CheckBestPick(const Tree& tree, int parent_id, double mw,
                                   uint64_t rows,
                                   std::optional<size_t> star_column) {
  const TreeNode* parent = tree.Find(parent_id);
  if (parent == nullptr) return "best-pick check: no such node";
  double displayed = 0;
  for (int id : parent->children) {
    const TreeNode* k = tree.Find(id);
    displayed = std::max(displayed, k->weight * k->mass);
  }
  std::vector<size_t> free;
  double base_weight = 0;
  for (size_t c = 0; c < parent->cells.size(); ++c) {
    if (parent->cells[c] < 0) {
      free.push_back(c);
    } else {
      base_weight += 1;
    }
  }
  const double budget = std::floor(mw - base_weight + 1e-9);
  if (free.size() > 20 || budget < 1) return "best-pick check: no search space";
  std::vector<uint32_t> covered;
  for (uint64_t r = 0; r < rows; ++r) {
    if (Covers(parent->cells, data_.row(r))) covered.push_back(static_cast<uint32_t>(r));
  }
  double best = 0;
  std::vector<uint32_t> dense;
  std::unordered_map<uint64_t, uint32_t> sparse;
  for (uint32_t mask = 1; mask < (1u << free.size()); ++mask) {
    const int size = __builtin_popcount(mask);
    if (size > budget) continue;
    std::vector<size_t> cols;
    uint64_t combos = 1;
    for (size_t b = 0; b < free.size(); ++b) {
      if ((mask >> b) & 1u) {
        cols.push_back(free[b]);
        combos *= data_.cardinality[free[b]];
      }
    }
    if (star_column) {
      bool has = false;
      for (size_t c : cols) has = has || c == *star_column;
      if (!has) continue;
    }
    uint32_t top = 0;
    if (combos <= (1u << 22)) {
      dense.assign(combos, 0);
      for (uint32_t r : covered) {
        const uint8_t* row = data_.row(r);
        uint64_t key = 0;
        for (size_t c : cols) key = key * data_.cardinality[c] + row[c];
        top = std::max(top, ++dense[key]);
      }
    } else {
      sparse.clear();
      for (uint32_t r : covered) {
        const uint8_t* row = data_.row(r);
        uint64_t key = 0;
        for (size_t c : cols) key = key * data_.cardinality[c] + row[c];
        top = std::max(top, ++sparse[key]);
      }
    }
    best = std::max(best, (base_weight + size) * static_cast<double>(top));
  }
  ++brute_force_checks_;
  if (displayed != best) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "best pick under node %d: displayed max W*Count %.17g, "
                  "brute force %.17g",
                  parent_id, displayed, best);
    return buf;
  }
  return "";
}

std::string Checker::CheckSampled(const Tree& tree) {
  const TreeNode& root = tree.nodes[0];
  if (root.mass != static_cast<double>(data_.rows())) {
    return Mismatch("root estimate", root, root.mass,
                    static_cast<double>(data_.rows()));
  }
  std::vector<const std::vector<int>*> rules;
  for (const TreeNode& n : tree.nodes) rules.push_back(&n.cells);
  const std::vector<uint64_t> counts = Counts(rules, data_.rows());
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const TreeNode& n = tree.nodes[i];
    const double exact = static_cast<double>(counts[i]);
    if (counts[i] == 0) return Mismatch("nonzero count", n, n.mass, exact);
    if (n.exact) {
      if (n.mass != exact) return Mismatch("exact mass", n, n.mass, exact);
      continue;
    }
    char key[64];
    std::snprintf(key, sizeof(key), "%.17g/%.17g", n.mass, n.ci);
    if (!sampled_checked_.insert({counts[i], Describe(n) + key}).second) continue;
    ++ci_total_;
    if (std::fabs(n.mass - exact) <= n.ci) ++ci_inside_;
  }
  return "";
}

}  // namespace perfbench
