#include "core/analyzer.h"

#include "common/logging.h"
#include "expr/predicates.h"

namespace tcq {

namespace {

std::string DeriveName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr && item.expr->kind() == ExprKind::kColumn) {
    return item.expr->column_name();
  }
  if (item.expr != nullptr && item.expr->kind() == ExprKind::kAggregate) {
    std::string base = AggKindToString(item.expr->agg_kind());
    for (char& c : base) c = static_cast<char>(std::tolower(c));
    if (item.expr->agg_arg() != nullptr &&
        item.expr->agg_arg()->kind() == ExprKind::kColumn) {
      return base + "_" + item.expr->agg_arg()->column_name();
    }
    return base;
  }
  return "col" + std::to_string(index);
}

ValueType AggResultType(const AggregateSpec& spec) {
  switch (spec.kind) {
    case AggKind::kCount:
      return ValueType::kInt64;
    case AggKind::kAvg:
      return ValueType::kDouble;
    case AggKind::kSum:
      return spec.arg != nullptr ? spec.arg->result_type()
                                 : ValueType::kInt64;
    case AggKind::kMin:
    case AggKind::kMax:
      return spec.arg != nullptr ? spec.arg->result_type()
                                 : ValueType::kNull;
  }
  return ValueType::kNull;
}

}  // namespace

Result<AnalyzedQuery> Analyze(ParsedQuery query, const Catalog& catalog) {
  AnalyzedQuery out;
  out.parsed = std::move(query);
  const ParsedQuery& parsed = out.parsed;
  out.layout = std::make_shared<SourceLayout>();

  // --- FROM: resolve sources. -----------------------------------------
  out.tables_only = true;
  out.defs.reserve(parsed.from.size());
  for (const TableRef& ref : parsed.from) {
    TCQ_ASSIGN_OR_RETURN(StreamDef def, catalog.GetStream(ref.name));
    const std::string& alias = ref.EffectiveAlias();
    if (out.layout->SourceIndexOf(alias) != out.layout->num_sources()) {
      return Status::InvalidArgument("duplicate source alias: " + alias);
    }
    out.layout->AddSource(alias, def.schema);
    if (!def.is_table) out.tables_only = false;
    out.defs.push_back(std::move(def));
  }
  const SchemaPtr& schema = out.layout->full_schema();

  auto source_of_column = [&](size_t column) {
    const std::string& qual = schema->field(column).qualifier;
    return out.layout->SourceIndexOf(qual);
  };

  // --- WHERE: classify boolean factors. ---------------------------------
  const std::vector<ExprPtr> factors = ExtractConjuncts(parsed.where);
  out.filters.reserve(factors.size());
  for (const ExprPtr& factor : factors) {
    if (factor == nullptr) continue;
    TCQ_ASSIGN_OR_RETURN(FactorPlan plan, ClassifyFactor(factor, *schema));
    if (plan.kind == FactorPlan::Kind::kJoin) {
      out.joins.push_back({source_of_column(plan.column),
                           static_cast<int>(plan.column),
                           source_of_column(plan.column_b),
                           static_cast<int>(plan.column_b)});
      continue;
    }
    AnalyzedQuery::BoundFilter filter;
    if (plan.kind == FactorPlan::Kind::kResidual) {
      filter.expr = plan.bound;
    } else {
      TCQ_ASSIGN_OR_RETURN(filter.expr, factor->Bind(*schema));
    }
    filter.plan = std::move(plan);
    if (filter.expr->result_type() != ValueType::kBool) {
      return Status::TypeError("WHERE factor is not boolean: " +
                               factor->ToString());
    }
    filter.required.Resize(out.layout->num_sources());
    if (filter.plan.kind == FactorPlan::Kind::kGrouped) {
      filter.required.Set(source_of_column(filter.plan.column));
    } else {
      std::vector<std::string> cols;
      factor->CollectColumns(&cols);
      for (const std::string& c : cols) {
        TCQ_ASSIGN_OR_RETURN(size_t idx, schema->IndexOf(c));
        filter.required.Set(source_of_column(idx));
      }
    }
    out.filters.push_back(std::move(filter));
  }

  // --- SELECT: projections vs aggregates. ------------------------------
  // `projections` holds the bound non-aggregate items in either mode.
  std::vector<Field> output_fields;
  output_fields.reserve(parsed.select.size());
  out.output_names.reserve(parsed.select.size());
  for (size_t i = 0; i < parsed.select.size(); ++i) {
    const SelectItem& item = parsed.select[i];
    if (item.star) {
      for (size_t c = 0; c < schema->num_fields(); ++c) {
        const Field& f = schema->field(c);
        if (!item.star_qualifier.empty() &&
            f.qualifier != item.star_qualifier) {
          continue;
        }
        TCQ_ASSIGN_OR_RETURN(ExprPtr bound,
                             Expr::Column(f.QualifiedName())->Bind(*schema));
        out.projections.push_back(bound);
        out.output_names.push_back(f.name);
        output_fields.push_back({f.name, f.type, ""});
      }
      if (!item.star_qualifier.empty() &&
          out.layout->SourceIndexOf(item.star_qualifier) ==
              out.layout->num_sources()) {
        return Status::NotFound("unknown qualifier in select: " +
                                item.star_qualifier + ".*");
      }
      continue;
    }
    if (item.expr->ContainsAggregate()) {
      if (item.expr->kind() != ExprKind::kAggregate) {
        return Status::NotImplemented(
            "aggregates must be top-level select items: " +
            item.expr->ToString());
      }
      out.has_aggregates = true;
      out.aggregates.reserve(parsed.select.size());
      AggregateSpec spec;
      spec.kind = item.expr->agg_kind();
      if (item.expr->agg_arg() != nullptr) {
        TCQ_ASSIGN_OR_RETURN(spec.arg, item.expr->agg_arg()->Bind(*schema));
        const ValueType t = spec.arg->result_type();
        if ((spec.kind == AggKind::kSum || spec.kind == AggKind::kAvg) &&
            (t == ValueType::kString || t == ValueType::kBool)) {
          return Status::TypeError(item.expr->ToString() +
                                   " needs a numeric argument");
        }
      }
      spec.output_name = DeriveName(item, i);
      out.output_names.push_back(spec.output_name);
      output_fields.push_back({spec.output_name, AggResultType(spec), ""});
      out.aggregates.push_back(std::move(spec));
      continue;
    }
    TCQ_ASSIGN_OR_RETURN(ExprPtr bound, item.expr->Bind(*schema));
    out.projections.reserve(parsed.select.size());
    out.projections.push_back(bound);
    const std::string name = DeriveName(item, i);
    out.output_names.push_back(name);
    output_fields.push_back({name, bound->result_type(), ""});
  }

  if (out.has_aggregates) {
    // Grouping keys: explicit GROUP BY, else the plain select items.
    if (!parsed.group_by.empty()) {
      for (const ExprPtr& key : parsed.group_by) {
        TCQ_ASSIGN_OR_RETURN(ExprPtr bound, key->Bind(*schema));
        out.group_by.push_back(bound);
      }
      // Plain select items must be grouping keys (checked syntactically).
      for (const ExprPtr& sel : out.projections) {
        bool found = false;
        for (const ExprPtr& key : out.group_by) {
          if (key->ToString() == sel->ToString()) found = true;
        }
        if (!found) {
          return Status::InvalidArgument(
              "non-aggregate select item is not a GROUP BY key: " +
              sel->ToString());
        }
      }
    } else {
      out.group_by = out.projections;
    }
    out.aggregate_plan = AggregatePlan(out.aggregates, out.group_by);
    // Result rows come out of AggregateState as keys-then-aggregates:
    // require the select list in that order so output columns line up.
    for (size_t i = 0; i < parsed.select.size(); ++i) {
      const bool is_agg = !parsed.select[i].star &&
                          parsed.select[i].expr->ContainsAggregate();
      const bool in_key_zone = i < out.projections.size();
      if (in_key_zone == is_agg) {
        return Status::NotImplemented(
            "with aggregates, list grouping keys before aggregate calls");
      }
    }
  }

  // --- Window clause. -----------------------------------------------------
  out.window_clause_of_source.assign(out.layout->num_sources(), -1);
  if (parsed.window.has_value()) {
    TCQ_RETURN_NOT_OK(ValidateForLoop(*parsed.window));
    out.window = parsed.window;
    for (size_t w = 0; w < out.window->windows.size(); ++w) {
      const std::string& name = out.window->windows[w].stream;
      const size_t s = out.layout->SourceIndexOf(name);
      if (s == out.layout->num_sources()) {
        return Status::NotFound("WindowIs references unknown source: " +
                                name);
      }
      if (out.window_clause_of_source[s] != -1) {
        return Status::InvalidArgument("duplicate WindowIs for source: " +
                                       name);
      }
      out.window_clause_of_source[s] = static_cast<int>(w);
    }
    // Paper semantics: a source without a WindowIs clause is treated as a
    // static table. Reject windowless *streams* in windowed queries.
    for (size_t s = 0; s < out.layout->num_sources(); ++s) {
      if (out.window_clause_of_source[s] == -1 && !out.defs[s].is_table) {
        return Status::InvalidArgument(
            "stream " + out.layout->alias(s) +
            " needs a WindowIs clause (only tables may omit one)");
      }
    }
  } else {
    // No window: legal for table-only snapshots and for standing
    // single-stream filter queries (the CACQ case).
    const bool standing_filter = out.layout->num_sources() == 1 &&
                                 !out.defs[0].is_table &&
                                 !out.has_aggregates;
    if (!out.tables_only && !standing_filter) {
      return Status::InvalidArgument(
          "queries over streams need a for(...){WindowIs(...)} clause "
          "unless they are single-stream standing filters");
    }
    out.cacq_eligible = standing_filter;
  }

  out.output_schema = Schema::Make(std::move(output_fields));
  return out;
}

Result<AnalyzedQuery> AnalyzeSql(const std::string& sql,
                                 const Catalog& catalog) {
  TCQ_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(sql));
  return Analyze(std::move(parsed), catalog);
}

Tuple EvalSelectList(const AnalyzedQuery& aq, const Tuple& t) {
  const std::vector<ExprPtr>& projections = aq.projections;
  return Tuple::Build(projections.size(), t.timestamp(), [&](Value* cells) {
    for (size_t i = 0; i < projections.size(); ++i) {
      cells[i] = projections[i]->Eval(t);
    }
  });
}

}  // namespace tcq
