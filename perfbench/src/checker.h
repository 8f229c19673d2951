// Checks the program's answers against the benchmark's own copy of the
// rows. Nothing here calls into the program: responses are read with the
// benchmark's JSON parser, rules are matched against the generated cells,
// and every expected number is recounted from those cells.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "data.h"

namespace perfbench {

/// One displayed rule as the response reports it.
struct TreeNode {
  int id = 0;
  std::vector<int> cells;  ///< value index per column, -1 for "?"
  double mass = 0;
  double marginal = 0;
  double weight = 0;
  double ci = 0;
  bool exact = true;
  int parent = -1;
  std::vector<int> children;
};

struct Tree {
  std::vector<TreeNode> nodes;  ///< render order, root first
  const TreeNode* Find(int id) const;
};

/// Parses a response envelope. On success fills `tree` (when the envelope
/// has one) and `token` (when it names a session) and returns "";
/// otherwise returns what is wrong, the error envelope included.
std::string ParseEnvelope(std::string_view body, size_t columns, Tree* tree,
                          std::string* token);

class Checker {
 public:
  explicit Checker(const Dataset& data) : data_(data) {}

  /// Exact tree over rows [0, rows) of the dataset: every node's mass
  /// and size weight are recounted, and every sibling list's marginal
  /// masses are recomputed (each parent row goes to the first child, in
  /// display order, that covers it), so they must sum to the parent rows
  /// covered by at least one child. Returns "" or the first mismatch.
  std::string CheckExact(const Tree& tree, uint64_t rows);

  /// The first greedy pick maximises W(r)*Count(r) over rules under the
  /// parent with W(r) <= mw (size weight), so the largest weight*mass
  /// among the displayed children must equal a brute-force maximum over
  /// every such rule. With `star_column` set only rules instantiating it
  /// are eligible.
  std::string CheckBestPick(const Tree& tree, int parent, double mw,
                            uint64_t rows, std::optional<size_t> star_column);

  /// Sampled tree over the whole dataset: the root estimate must equal
  /// the row count, every displayed rule must cover at least one row,
  /// nodes marked exact must match their recount, and each estimate is
  /// tallied as inside or outside its reported 95% interval.
  std::string CheckSampled(const Tree& tree);

  uint64_t ci_inside() const { return ci_inside_; }
  uint64_t ci_total() const { return ci_total_; }
  uint64_t brute_force_checks() const { return brute_force_checks_; }

 private:
  /// Rows [0, rows) covered by each rule, counted in one pass and cached.
  std::vector<uint64_t> Counts(const std::vector<const std::vector<int>*>& rules,
                               uint64_t rows);
  bool Covers(const std::vector<int>& cells, const uint8_t* row) const;

  const Dataset& data_;
  std::map<std::pair<uint64_t, std::vector<int>>, uint64_t> counts_;
  std::set<std::string> lists_checked_;
  std::set<std::pair<uint64_t, std::string>> sampled_checked_;
  uint64_t ci_inside_ = 0;
  uint64_t ci_total_ = 0;
  uint64_t brute_force_checks_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
