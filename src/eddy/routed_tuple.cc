#include "eddy/routed_tuple.h"

namespace tcq {

size_t SourceLayout::AddSource(std::string alias, SchemaPtr schema) {
  TCQ_CHECK(schema != nullptr);
  TCQ_CHECK(full_schema_ == nullptr)
      << "cannot add sources after full_schema() was built";
  const size_t index = aliases_.size();
  offsets_.push_back(total_arity_);
  total_arity_ += schema->num_fields();
  aliases_.push_back(std::move(alias));
  schemas_.push_back(std::move(schema));
  return index;
}

const SchemaPtr& SourceLayout::full_schema() const {
  if (full_schema_ == nullptr) {
    std::vector<Field> fields;
    fields.reserve(total_arity_);
    for (size_t s = 0; s < schemas_.size(); ++s) {
      for (const Field& f : schemas_[s]->fields()) {
        Field qualified = f;
        qualified.qualifier = aliases_[s];
        fields.push_back(std::move(qualified));
      }
    }
    full_schema_ = Schema::Make(std::move(fields));
  }
  return full_schema_;
}

size_t SourceLayout::SourceIndexOf(const std::string& alias) const {
  for (size_t s = 0; s < aliases_.size(); ++s) {
    if (aliases_[s] == alias) return s;
  }
  return aliases_.size();
}

Tuple SourceLayout::Widen(size_t source, const Tuple& narrow) const {
  TCQ_DCHECK(source < num_sources());
  TCQ_DCHECK(narrow.arity() == arity(source))
      << "source " << aliases_[source] << " arity mismatch";
  // One source: the narrow tuple already is full width.
  if (aliases_.size() == 1) return narrow;
  const size_t base = offsets_[source];
  Tuple wide =
      Tuple::Build(total_arity_, narrow.timestamp(), [&](Value* cells) {
        // Cells outside the source stay NULL (value-initialized).
        for (size_t i = 0; i < narrow.arity(); ++i) {
          cells[base + i] = narrow.cell(i);
        }
      });
  wide.set_seq(narrow.seq());
  wide.set_retraction(narrow.retraction());
  return wide;
}

Tuple SourceLayout::MergeSparse(const Tuple& a, const Tuple& b) const {
  TCQ_DCHECK(a.arity() == total_arity_ && b.arity() == total_arity_);
  const Timestamp ts =
      a.timestamp() > b.timestamp() ? a.timestamp() : b.timestamp();
  Tuple merged = Tuple::Build(total_arity_, ts, [&](Value* cells) {
    for (size_t i = 0; i < total_arity_; ++i) {
      cells[i] = a.cell(i).is_null() ? b.cell(i) : a.cell(i);
    }
  });
  merged.set_seq(a.seq() > b.seq() ? a.seq() : b.seq());
  // Sign XOR: a join result with one retraction constituent retracts the
  // corresponding assertion-side result (DESIGN.md §15).
  merged.set_retraction(a.retraction() != b.retraction());
  return merged;
}

Tuple SourceLayout::Narrow(size_t source, const Tuple& wide) const {
  TCQ_DCHECK(source < num_sources());
  TCQ_DCHECK(wide.arity() == total_arity_);
  const size_t base = offsets_[source];
  const size_t n = arity(source);
  Tuple narrow = Tuple::Build(n, wide.timestamp(), [&](Value* cells) {
    for (size_t i = 0; i < n; ++i) cells[i] = wide.cell(base + i);
  });
  narrow.set_retraction(wide.retraction());
  return narrow;
}

}  // namespace tcq
