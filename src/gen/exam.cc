#include "gen/exam.h"

#include <unordered_set>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/dataset_builder.h"

namespace tdac {

namespace {

/// Domain kinds drive the coverage rules.
enum class DomainKind { kMandatory, kChoiceA, kChoiceB, kOptional };

struct DomainSpec {
  const char* name;
  int questions;
  DomainKind kind;
};

constexpr DomainSpec kDomains[] = {
    {"Math 1A", 15, DomainKind::kMandatory},
    {"Physics", 17, DomainKind::kMandatory},
    {"Chemistry 1", 15, DomainKind::kChoiceA},
    {"Math 1B", 15, DomainKind::kChoiceB},
    {"Electrical Engineering", 13, DomainKind::kOptional},
    {"Computer Science", 13, DomainKind::kOptional},
    {"Chemistry 2", 12, DomainKind::kOptional},
    {"Science of life", 12, DomainKind::kOptional},
    {"Math 2", 12, DomainKind::kOptional},
};

std::vector<int64_t> DrawDistinctValues(Rng* rng, int count) {
  std::unordered_set<int64_t> seen;
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(count));
  while (static_cast<int>(out.size()) < count) {
    int64_t v = rng->NextInt(0, 999999999);
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

}  // namespace

std::vector<std::pair<std::string, int>> ExamDomainLayout() {
  std::vector<std::pair<std::string, int>> out;
  for (const DomainSpec& d : kDomains) out.emplace_back(d.name, d.questions);
  return out;
}

Result<ExamData> GenerateExam(const ExamConfig& config) {
  if (config.num_students < 2) {
    return Status::InvalidArgument("exam: need >= 2 students");
  }
  if (config.num_questions < 1 || config.num_questions > 124) {
    return Status::InvalidArgument("exam: num_questions must be in [1, 124]");
  }
  if (config.false_range < 1) {
    return Status::InvalidArgument("exam: false_range must be >= 1");
  }

  Rng rng(config.seed);
  const int num_domains = static_cast<int>(std::size(kDomains));

  // Domain of every question in the canonical order.
  std::vector<int> domain_of_question;
  for (int d = 0; d < num_domains; ++d) {
    for (int q = 0; q < kDomains[d].questions; ++q) {
      domain_of_question.push_back(d);
    }
  }
  TDAC_CHECK(domain_of_question.size() == 124) << "exam layout must total 124";

  ExamData out;

  // Per-(student, domain) ability: a student-level ability plus an
  // independent per-domain offset — reliability is constant within a domain
  // (the structural correlation TD-AC exploits).
  out.ability.assign(static_cast<size_t>(config.num_students),
                     std::vector<double>(static_cast<size_t>(num_domains)));
  for (int s = 0; s < config.num_students; ++s) {
    double base = rng.NextGaussian(config.ability_mean, config.ability_spread);
    for (int d = 0; d < num_domains; ++d) {
      out.ability[static_cast<size_t>(s)][static_cast<size_t>(d)] =
          Clamp(base + rng.NextGaussian(0.0, config.domain_spread), 0.05,
                0.98);
    }
  }

  // Enrolment: mandatory domains for everyone; one of the two choice
  // domains; optional domains independently.
  std::vector<std::vector<char>> enrolled(
      static_cast<size_t>(config.num_students),
      std::vector<char>(static_cast<size_t>(num_domains), 0));
  for (int s = 0; s < config.num_students; ++s) {
    const bool picks_a = rng.NextBernoulli(0.5);
    for (int d = 0; d < num_domains; ++d) {
      switch (kDomains[d].kind) {
        case DomainKind::kMandatory:
          enrolled[static_cast<size_t>(s)][static_cast<size_t>(d)] = 1;
          break;
        case DomainKind::kChoiceA:
          enrolled[static_cast<size_t>(s)][static_cast<size_t>(d)] = picks_a;
          break;
        case DomainKind::kChoiceB:
          enrolled[static_cast<size_t>(s)][static_cast<size_t>(d)] = !picks_a;
          break;
        case DomainKind::kOptional:
          enrolled[static_cast<size_t>(s)][static_cast<size_t>(d)] =
              rng.NextBernoulli(config.optional_enroll_rate);
          break;
      }
    }
  }

  auto answer_rate = [&](DomainKind kind) {
    switch (kind) {
      case DomainKind::kMandatory:
        return config.mandatory_answer_rate;
      case DomainKind::kChoiceA:
      case DomainKind::kChoiceB:
        return config.choice_answer_rate;
      case DomainKind::kOptional:
        return config.optional_answer_rate;
    }
    return 0.0;
  };

  DatasetBuilder builder;
  std::vector<SourceId> students(static_cast<size_t>(config.num_students));
  for (int s = 0; s < config.num_students; ++s) {
    students[static_cast<size_t>(s)] =
        builder.AddSource(Numbered("Student", s + 1));
  }
  ObjectId exam = builder.AddObject("Exam");
  std::vector<AttributeId> questions(
      static_cast<size_t>(config.num_questions));
  for (int q = 0; q < config.num_questions; ++q) {
    questions[static_cast<size_t>(q)] =
        builder.AddAttribute(Numbered("Q", q + 1));
  }

  for (int q = 0; q < config.num_questions; ++q) {
    const int d = domain_of_question[static_cast<size_t>(q)];
    std::vector<int64_t> pool =
        DrawDistinctValues(&rng, config.false_range + 1);
    const Value correct(pool[0]);
    const Value misconception(pool.size() > 1 ? pool[1] : pool[0]);
    const double difficulty =
        rng.NextDouble(-config.difficulty_spread, config.difficulty_spread);
    out.truth.Set(exam, questions[static_cast<size_t>(q)], correct);
    for (int s = 0; s < config.num_students; ++s) {
      bool answers =
          enrolled[static_cast<size_t>(s)][static_cast<size_t>(d)] &&
          rng.NextBernoulli(answer_rate(kDomains[d].kind));
      Value claimed;
      if (answers) {
        const double p_correct =
            Clamp(out.ability[static_cast<size_t>(s)][static_cast<size_t>(d)] +
                      difficulty,
                  0.02, 0.98);
        if (rng.NextBernoulli(p_correct)) {
          claimed = correct;
        } else if (rng.NextBernoulli(config.misconception_rate)) {
          claimed = misconception;
        } else {
          claimed = Value(pool[1 + rng.NextBounded(static_cast<uint64_t>(
                        config.false_range))]);
        }
      } else if (config.fill_missing) {
        // Semi-synthetic: unanswered questions get a random false answer.
        claimed = Value(pool[1 + rng.NextBounded(
            static_cast<uint64_t>(config.false_range))]);
      } else {
        continue;
      }
      TDAC_RETURN_NOT_OK(builder.AddClaim(students[static_cast<size_t>(s)],
                                          exam,
                                          questions[static_cast<size_t>(q)],
                                          std::move(claimed)));
    }
  }

  TDAC_ASSIGN_OR_RETURN(out.dataset, builder.Build());

  // Domain partition over the generated questions.
  std::vector<std::vector<AttributeId>> groups(
      static_cast<size_t>(num_domains));
  for (int q = 0; q < config.num_questions; ++q) {
    groups[static_cast<size_t>(domain_of_question[static_cast<size_t>(q)])]
        .push_back(questions[static_cast<size_t>(q)]);
  }
  std::vector<std::vector<AttributeId>> non_empty;
  for (int d = 0; d < num_domains; ++d) {
    if (!groups[static_cast<size_t>(d)].empty()) {
      out.domains.emplace_back(kDomains[d].name,
                               static_cast<int>(groups[static_cast<size_t>(d)].size()));
      non_empty.push_back(std::move(groups[static_cast<size_t>(d)]));
    }
  }
  TDAC_ASSIGN_OR_RETURN(out.domain_partition,
                        AttributePartition::FromGroups(std::move(non_empty)));
  return out;
}

}  // namespace tdac
