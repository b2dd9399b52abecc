#include "core/config.h"

#include <iomanip>

namespace domd {

const char* ModelFamilyToString(ModelFamily family) {
  switch (family) {
    case ModelFamily::kGbt:
      return "GBT";
    case ModelFamily::kElasticNet:
      return "ElasticNet";
  }
  return "?";
}

const char* ArchitectureToString(Architecture architecture) {
  switch (architecture) {
    case Architecture::kNonStacked:
      return "non-stacked";
    case Architecture::kStacked:
      return "stacked";
  }
  return "?";
}

const char* FusionMethodToString(FusionMethod method) {
  switch (method) {
    case FusionMethod::kNone:
      return "none";
    case FusionMethod::kMin:
      return "min";
    case FusionMethod::kAverage:
      return "average";
    case FusionMethod::kMedian:
      return "median";
    case FusionMethod::kWeightedRecent:
      return "weighted-recent";
  }
  return "?";
}

Loss PipelineConfig::MakeLoss() const {
  return Loss::FromKind(loss, huber_delta);
}

void PipelineConfig::Save(std::ostream& out) const {
  out << std::setprecision(17);
  out << "pipeline_config v1\n";
  out << static_cast<int>(selection) << ' ' << num_features << ' '
      << static_cast<int>(model_family) << ' '
      << static_cast<int>(architecture) << ' ' << static_cast<int>(loss)
      << ' ' << huber_delta << ' ' << hpt_trials << ' '
      << static_cast<int>(fusion) << ' ' << window_width_pct << ' ' << seed
      << "\n";
  WriteGbtParams(out, gbt);
  out << "\n";
  WriteElasticNetParams(out, elastic_net);
  out << "\n";
}

StatusOr<PipelineConfig> PipelineConfig::Load(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "pipeline_config" ||
      version != "v1") {
    return Status::InvalidArgument("bad pipeline config header");
  }
  PipelineConfig config;
  int selection = 0, family = 0, architecture = 0, loss = 0, fusion = 0;
  if (!(in >> selection >> config.num_features >> family >> architecture >>
        loss >> config.huber_delta >> config.hpt_trials >> fusion >>
        config.window_width_pct >> config.seed)) {
    return Status::InvalidArgument("bad pipeline config body");
  }
  DOMD_RETURN_IF_ERROR(ReadGbtParams(in, "pipeline config GBT", &config.gbt));
  DOMD_RETURN_IF_ERROR(ReadElasticNetParams(
      in, "pipeline config elastic-net", &config.elastic_net));
  DOMD_RETURN_IF_ERROR(ReadEnum(selection,
                                SelectionMethod::kMutualInformationApprox,
                                "pipeline config: selection",
                                &config.selection));
  DOMD_RETURN_IF_ERROR(ReadEnum(family, ModelFamily::kElasticNet,
                                "pipeline config: model family",
                                &config.model_family));
  DOMD_RETURN_IF_ERROR(ReadEnum(architecture, Architecture::kStacked,
                                "pipeline config: architecture",
                                &config.architecture));
  DOMD_RETURN_IF_ERROR(ReadEnum(loss, LossKind::kQuantile,
                                "pipeline config: loss", &config.loss));
  DOMD_RETURN_IF_ERROR(ReadEnum(fusion, FusionMethod::kWeightedRecent,
                                "pipeline config: fusion", &config.fusion));
  // A quantile loss keeps its level in huber_delta (Loss::tau()).
  if (config.loss == LossKind::kQuantile &&
      !(config.huber_delta > 0.0 && config.huber_delta < 1.0)) {
    return Status::InvalidArgument(
        "pipeline config: quantile level " +
        std::to_string(config.huber_delta) + " is outside (0, 1)");
  }
  return config;
}

std::string PipelineConfig::ToString() const {
  std::string out;
  out += SelectionMethodToString(selection);
  out += "(k=" + std::to_string(num_features) + ") ";
  out += ModelFamilyToString(model_family);
  out += " ";
  out += ArchitectureToString(architecture);
  out += " loss=" + MakeLoss().ToString();
  out += " hpt_trials=" + std::to_string(hpt_trials);
  out += " fusion=";
  out += FusionMethodToString(fusion);
  out += " x=" + std::to_string(window_width_pct) + "%";
  return out;
}

}  // namespace domd
