#include "serve/model_bundle.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <sstream>

#include "common/fnv1a.h"
#include "common/strings.h"
#include "core/fusion.h"
#include "data/integrity.h"
#include "data/logical_time.h"
#include "fault/fault.h"
#include "features/feature_catalog.h"
#include "ingest/ingest_log.h"

namespace domd {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kModelsName[] = "models.txt";
constexpr char kAvailsName[] = "avails.csv";
constexpr char kRccsName[] = "rccs.csv";

bool IsValidVersionTag(const std::string& version) {
  if (version.empty() || version.size() > 128) return false;
  return std::none_of(version.begin(), version.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  });
}

/// Reads a whole file. The serve.bundle.read fault point injects transient
/// read errors here (absorbed by LoadBundleWithRetry); serve.bundle.corrupt
/// flips bytes of what was read, which the checksum gate must then catch.
StatusOr<std::string> ReadFileBytes(const std::string& path) {
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("serve.bundle.read").Check());
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  DOMD_FAULT_POINT("serve.bundle.corrupt").MaybeCorrupt(&*bytes);
  return bytes;
}

/// What a bundle MANIFEST records.
struct Manifest {
  std::string version;
  std::uint64_t schema_hash = 0;
  std::size_t num_avails = 0;
  std::size_t num_rccs = 0;
  /// Per payload file; empty for a v1 manifest, which records none.
  std::map<std::string, std::uint64_t> checksums;
};

/// Parses the MANIFEST text of the bundle in `dir` (named in errors), for
/// Load and for CopyBundleDurable alike. v1 manifests (pre-checksum) are
/// still accepted so old artifacts load; they simply skip the corruption
/// gate. Every v2 manifest must name a checksum for all three payload
/// files.
StatusOr<Manifest> ParseManifest(const std::string& dir,
                                 const std::string& text) {
  std::istringstream in(text);
  std::string magic, format;
  if (!(in >> magic >> format) || magic != "domd_bundle" ||
      (format != "v1" && format != "v2")) {
    return Status::InvalidArgument(dir + ": not a domd bundle (bad magic)");
  }
  Manifest manifest;
  std::string key;
  if (!(in >> key >> manifest.version) || key != "version" ||
      !IsValidVersionTag(manifest.version)) {
    return Status::InvalidArgument(dir + ": bad manifest version record");
  }
  if (!(in >> key >> manifest.schema_hash) || key != "schema_hash") {
    return Status::InvalidArgument(dir + ": bad manifest schema_hash record");
  }
  if (!(in >> key >> manifest.num_avails) || key != "avails" ||
      !(in >> key >> manifest.num_rccs) || key != "rccs") {
    return Status::InvalidArgument(dir + ": bad manifest cardinality record");
  }
  if (format == "v1") return manifest;
  std::string name;
  std::uint64_t sum = 0;
  while (in >> key >> name >> sum) {
    if (key != "checksum") {
      return Status::InvalidArgument(dir + ": bad manifest record \"" + key +
                                     "\"");
    }
    manifest.checksums[name] = sum;
  }
  for (const char* required : {kAvailsName, kRccsName, kModelsName}) {
    if (manifest.checksums.count(required) == 0) {
      return Status::DataLoss(dir + ": manifest lacks a checksum for " +
                              required + " — torn or tampered bundle");
    }
  }
  return manifest;
}

/// Writes one staged bundle file durably before the manifest (and then the
/// rename) makes it reachable. The serve.bundle.write fault point
/// simulates a crash mid-publication: the staging file is left torn and
/// never committed.
Status WriteStagedFile(const std::string& path, std::string_view content) {
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("serve.bundle.write").Check());
  return WriteFileSynced(path, content);
}

/// Atomically publishes the fully-written staging directory as `final`.
/// A pre-existing bundle at `final` is displaced to final.old first and
/// removed after the swap, so readers only ever see the old complete
/// bundle or the new complete bundle — never a mixture.
Status CommitDirectory(const std::string& staging, const std::string& final) {
  std::error_code ec;
  const bool displaced = std::filesystem::exists(final, ec);
  const std::string old = final + ".old";
  if (displaced) {
    std::filesystem::remove_all(old, ec);
    ec.clear();
    std::filesystem::rename(final, old, ec);
    if (ec) {
      return Status::IoError("cannot displace existing bundle " + final +
                             ": " + ec.message());
    }
  }
  std::filesystem::rename(staging, final, ec);
  if (ec) {
    // Roll the old bundle back so the published path stays valid.
    if (displaced) {
      std::error_code rollback;
      std::filesystem::rename(old, final, rollback);
    }
    return Status::IoError("cannot publish bundle " + staging + " -> " +
                           final + ": " + ec.message());
  }
  if (displaced) std::filesystem::remove_all(old, ec);
  return FsyncDirectory(std::filesystem::path(final).parent_path().string());
}

}  // namespace

std::uint64_t BundleFileChecksum(std::string_view bytes) {
  return Fnv1a(bytes);
}

Status ModelBundle::Write(const DomdEstimator& estimator, const Dataset& data,
                          const std::string& dir,
                          const std::string& version) {
  std::ostringstream models_out;
  DOMD_RETURN_IF_ERROR(estimator.models().Save(models_out));
  return WriteModels(models_out.str(), data, dir, version);
}

Status ModelBundle::WriteModels(const std::string& models_text,
                                const Dataset& data, const std::string& dir,
                                const std::string& version) {
  if (!IsValidVersionTag(version)) {
    return Status::InvalidArgument(
        "bundle version must be a non-empty whitespace-free tag");
  }

  // Crash-safe publication protocol (DESIGN.md §10): every file is staged
  // into <dir>.tmp, fsynced, and checksummed into the MANIFEST; only a
  // fully-written staging directory is atomically renamed onto <dir>. A
  // crash at any earlier instant leaves at most a stale .tmp directory —
  // the published path never holds a torn bundle.
  const std::string staging = dir + ".tmp";
  std::error_code ec;
  std::filesystem::remove_all(staging, ec);  // stale staging from a crash.
  ec.clear();
  std::filesystem::create_directories(staging, ec);
  if (ec) {
    return Status::IoError("cannot create staging directory " + staging +
                           ": " + ec.message());
  }

  const std::string avails_text = data.avails.ToCsv().Serialize();
  const std::string rccs_text = data.rccs.ToCsv().Serialize();

  DOMD_RETURN_IF_ERROR(
      WriteStagedFile(staging + "/" + kAvailsName, avails_text));
  DOMD_RETURN_IF_ERROR(WriteStagedFile(staging + "/" + kRccsName, rccs_text));
  DOMD_RETURN_IF_ERROR(
      WriteStagedFile(staging + "/" + kModelsName, models_text));

  std::ostringstream manifest;
  manifest << "domd_bundle v2\n";
  manifest << "version " << version << "\n";
  manifest << "schema_hash " << FeatureCatalogVersion() << "\n";
  manifest << "avails " << data.avails.size() << "\n";
  manifest << "rccs " << data.rccs.size() << "\n";
  manifest << "checksum " << kAvailsName << " "
           << BundleFileChecksum(avails_text) << "\n";
  manifest << "checksum " << kRccsName << " " << BundleFileChecksum(rccs_text)
           << "\n";
  manifest << "checksum " << kModelsName << " "
           << BundleFileChecksum(models_text) << "\n";
  DOMD_RETURN_IF_ERROR(
      WriteStagedFile(staging + "/" + kManifestName, manifest.str()));
  DOMD_RETURN_IF_ERROR(FsyncDirectory(staging));

  // The commit point: a crash (or injected fault) before the rename leaves
  // only the staging directory; the published path is untouched.
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("serve.bundle.commit").Check());
  return CommitDirectory(staging, dir);
}

Status CopyBundleDurable(const std::string& src_dir,
                         const std::string& dest_dir) {
  // Read and parse the manifest first, by Load's rules: its checksum
  // records gate the copy exactly like they gate Load, so a corrupt or
  // torn source never propagates, and a bad manifest stages nothing.
  auto manifest_bytes = ReadFileBytes(src_dir + "/" + kManifestName);
  if (!manifest_bytes.ok()) return manifest_bytes.status();
  auto manifest = ParseManifest(src_dir, *manifest_bytes);
  if (!manifest.ok()) return manifest.status();

  const std::string staging = dest_dir + ".tmp";
  std::error_code ec;
  std::filesystem::remove_all(staging, ec);
  ec.clear();
  std::filesystem::create_directories(staging, ec);
  if (ec) {
    return Status::IoError("cannot create staging directory " + staging +
                           ": " + ec.message());
  }
  for (const char* name : {kModelsName, kAvailsName, kRccsName}) {
    auto bytes = ReadFileBytes(src_dir + "/" + name);
    if (!bytes.ok()) return bytes.status();
    const auto expected = manifest->checksums.find(name);
    if (expected != manifest->checksums.end() &&
        BundleFileChecksum(*bytes) != expected->second) {
      return Status::DataLoss(src_dir + "/" + name +
                              ": checksum mismatch during staging copy");
    }
    DOMD_RETURN_IF_ERROR(WriteStagedFile(staging + "/" + name, *bytes));
  }
  DOMD_RETURN_IF_ERROR(
      WriteStagedFile(staging + "/" + kManifestName, *manifest_bytes));
  DOMD_RETURN_IF_ERROR(FsyncDirectory(staging));
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("serve.bundle.commit").Check());
  return CommitDirectory(staging, dest_dir);
}

StatusOr<std::shared_ptr<const ModelBundle>> ModelBundle::Load(
    const std::string& dir, const Parallelism& parallelism,
    std::size_t cache_bytes) {
  auto manifest_text = ReadFileToString(dir + "/" + kManifestName);
  if (!manifest_text.ok()) {
    return Status::IoError("cannot open bundle manifest in " + dir);
  }
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("serve.bundle.read").Check());
  auto manifest = ParseManifest(dir, *manifest_text);
  if (!manifest.ok()) return manifest.status();
  const std::map<std::string, std::uint64_t>& checksums = manifest->checksums;
  const bool has_checksums = !checksums.empty();

  // Schema-compatibility gate: a bundle written under a different feature
  // catalog would misalign model input columns — refuse early and loudly.
  if (manifest->schema_hash != FeatureCatalogVersion()) {
    return Status::FailedPrecondition(
        dir + ": bundle schema hash " +
        std::to_string(manifest->schema_hash) +
        " does not match this binary's feature schema " +
        std::to_string(FeatureCatalogVersion()));
  }

  // Read every payload file once, verify its recorded checksum, and parse
  // from those exact verified bytes. A flipped bit anywhere in the payload
  // is kDataLoss before any parser runs — a corrupt artifact can never be
  // half-loaded into a serving process.
  std::map<std::string, std::string> payload;
  for (const char* name : {kAvailsName, kRccsName, kModelsName}) {
    auto bytes = ReadFileBytes(dir + "/" + name);
    if (!bytes.ok()) {
      if (bytes.status().code() == StatusCode::kIoError &&
          !std::filesystem::exists(dir + "/" + name) && has_checksums) {
        // The manifest promises this file: its absence is a torn publish,
        // not a transient I/O failure — retrying cannot help.
        return Status::DataLoss(dir + "/" + name +
                                " is missing but listed in the manifest — "
                                "torn bundle publish");
      }
      return bytes.status();
    }
    if (has_checksums && BundleFileChecksum(*bytes) != checksums.at(name)) {
      return Status::DataLoss(
          dir + "/" + name + ": checksum mismatch (manifest " +
          std::to_string(checksums.at(name)) + ", file " +
          std::to_string(BundleFileChecksum(*bytes)) +
          ") — bundle is torn or corrupt");
    }
    payload[name] = std::move(*bytes);
  }

  auto bundle = std::shared_ptr<ModelBundle>(new ModelBundle());
  bundle->version_ = manifest->version;
  bundle->schema_hash_ = manifest->schema_hash;
  bundle->directory_ = dir;

  Dataset reference;
  auto avails_doc = CsvDocument::Parse(payload[kAvailsName]);
  if (!avails_doc.ok()) return avails_doc.status();
  auto avails = AvailTable::FromCsv(*avails_doc);
  if (!avails.ok()) return avails.status();
  reference.avails = std::move(*avails);
  auto rccs_doc = CsvDocument::Parse(payload[kRccsName]);
  if (!rccs_doc.ok()) return rccs_doc.status();
  auto rccs = RccTable::FromCsv(*rccs_doc);
  if (!rccs.ok()) return rccs.status();
  reference.rccs = std::move(*rccs);

  if (reference.avails.size() != manifest->num_avails ||
      reference.rccs.size() != manifest->num_rccs) {
    return Status::FailedPrecondition(
        dir + ": reference tables do not match manifest cardinalities");
  }
  const IntegrityReport report = CheckDatasetIntegrity(reference);
  if (!report.ok()) {
    return Status::FailedPrecondition(
        dir + ": reference fleet failed integrity check (" +
        std::to_string(report.num_errors) + " errors)");
  }

  // The reference fleet is read through an in-memory DataStore's clean
  // cut, like every other consumer's data; the pinned snapshot keeps the
  // tables address-stable for the estimator after the store is gone.
  auto store = DataStore::Open(std::move(reference));
  if (!store.ok()) return store.status();
  bundle->snapshot_ = (*store)->Snapshot();

  std::istringstream models_in(payload[kModelsName]);
  auto estimator = DomdEstimator::LoadModelsFromStream(
      bundle->snapshot_, models_in, parallelism, cache_bytes);
  if (!estimator.ok()) return estimator.status();
  bundle->estimator_ = std::make_unique<DomdEstimator>(std::move(*estimator));
  // PredictBatch equals per-row Predict bit for bit (DESIGN.md §13), so
  // the table holds exactly what QueryAtLogicalTime would predict.
  bundle->reference_steps_ = bundle->estimator_->models().PredictPerStep(
      *bundle->estimator_->shared_view());
  return std::shared_ptr<const ModelBundle>(std::move(bundle));
}

const StatusQueryEngine& ModelBundle::query_engine() const {
  std::call_once(query_engine_once_, [this] {
    query_engine_ = std::make_unique<StatusQueryEngine>(&snapshot_->data(),
                                                        IndexBackend::kAvlTree);
  });
  return *query_engine_;
}

StatusOr<std::shared_ptr<const ModelBundle>> LoadBundleWithRetry(
    const std::string& dir, const Parallelism& parallelism,
    std::size_t cache_bytes, const RetryOptions& retry) {
  return RetryWithBackoff<std::shared_ptr<const ModelBundle>>(
      retry, [&]() -> StatusOr<std::shared_ptr<const ModelBundle>> {
        return ModelBundle::Load(dir, parallelism, cache_bytes);
      });
}

ServePrediction ModelBundle::AssemblePrediction(
    const ModelingView& view, std::size_t row,
    const std::vector<std::vector<double>>& per_step, std::int64_t avail_id,
    double t_star, std::size_t top_k) const {
  int last_step = GridIndexAtOrBefore(grid(), t_star);
  if (last_step < 0) last_step = 0;  // before start: base step only.
  const auto last = static_cast<std::size_t>(last_step);

  ServePrediction prediction;
  prediction.avail_id = avail_id;
  prediction.t_star = t_star;
  prediction.bundle_version = version_;

  std::vector<double> prefix;
  prefix.reserve(last + 1);
  for (std::size_t step = 0; step <= last; ++step) {
    prefix.push_back(per_step[step][row]);
  }
  prediction.num_steps = prefix.size();
  prediction.estimate_days = FusePredictions(config().fusion, prefix);
  prediction.band_low = *std::min_element(prefix.begin(), prefix.end());
  prediction.band_high = *std::max_element(prefix.begin(), prefix.end());
  const TimelineModelSet& models = estimator_->models();
  prediction.top_features = TopContributions(
      models.model(last), models.BuildInputRow(view, row, last),
      models.input_names(last), top_k);
  return prediction;
}

StatusOr<ServePrediction> ModelBundle::ScoreReferenceAvail(
    std::int64_t avail_id, double t_star, std::size_t top_k) const {
  const ModelingView& view = *estimator_->shared_view();
  const int row = view.dynamic.RowOf(avail_id);
  if (row < 0) {
    return Status::NotFound("avail " + std::to_string(avail_id) +
                            " unknown to the estimator");
  }
  return AssemblePrediction(view, static_cast<std::size_t>(row),
                            reference_steps_, avail_id, t_star, top_k);
}

std::vector<StatusOr<ServePrediction>> ModelBundle::ScoreBatch(
    const std::vector<ScoreRequest>& requests,
    const Parallelism& parallelism) const {
  std::vector<StatusOr<ServePrediction>> out;
  out.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out.emplace_back(Status::Internal("unscored"));  // placeholder
  }

  // Validate every request and assemble the valid ones into one temporary
  // dataset. Ids are remapped to dense temporaries so concurrent clients
  // may reuse ids without colliding inside a batch.
  Dataset batch_data;
  std::vector<std::size_t> valid_slots;  ///< request index per dataset row.
  std::int64_t next_rcc_id = 1;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ScoreRequest& request = requests[i];
    const std::int64_t temp_id =
        static_cast<std::int64_t>(valid_slots.size()) + 1;

    // Same semantic gate as the training pipeline's dataset checks; runs
    // on the caller's ids so error messages match what the client sent.
    // Requests arriving through ParseScoreRequest were already screened,
    // but in-process callers construct ScoreRequests directly.
    Status status = CheckRequestIntegrity(request.avail, request.rccs);
    if (!status.ok()) {
      out[i] = Status::InvalidArgument("bad request: " + status.message());
      continue;
    }

    Avail avail = request.avail;
    avail.id = temp_id;
    std::vector<Rcc> rccs;
    rccs.reserve(request.rccs.size());
    for (const Rcc& original : request.rccs) {
      Rcc rcc = original;
      rcc.id = next_rcc_id + static_cast<std::int64_t>(rccs.size());
      rcc.avail_id = temp_id;
      rccs.push_back(std::move(rcc));
    }

    status = batch_data.avails.Add(std::move(avail));
    if (!status.ok()) {
      out[i] = status;
      continue;
    }
    for (Rcc& rcc : rccs) {
      status = batch_data.rccs.Add(std::move(rcc));
      if (!status.ok()) break;
    }
    if (!status.ok()) {
      out[i] = status;
      continue;
    }
    next_rcc_id += static_cast<std::int64_t>(rccs.size());
    valid_slots.push_back(i);
  }
  if (valid_slots.empty()) return out;

  // One feature-engineering sweep for the whole micro-batch: the tensor
  // block reuses the incremental StatStructure path and the ParallelFor
  // substrate exactly like training does.
  std::vector<std::int64_t> temp_ids;
  temp_ids.reserve(valid_slots.size());
  for (std::size_t row = 0; row < valid_slots.size(); ++row) {
    temp_ids.push_back(static_cast<std::int64_t>(row) + 1);
  }
  const FeatureEngineer engineer(&batch_data);
  const ModelingView view = BuildModelingView(batch_data, engineer, temp_ids,
                                              grid(), parallelism);

  // Batched scoring: one PredictPerStep sweep drives the breadth-first
  // batch scorer over the whole micro-batch per step — bit-identical to
  // per-row BuildInputRow + Predict traversal.
  const std::vector<std::vector<double>> per_step =
      estimator_->models().PredictPerStep(view);
  for (std::size_t row = 0; row < valid_slots.size(); ++row) {
    const ScoreRequest& request = requests[valid_slots[row]];
    out[valid_slots[row]] =
        AssemblePrediction(view, row, per_step, request.avail.id,
                           request.t_star, request.top_k);
  }
  return out;
}

}  // namespace domd
