#include "src/eval/annotation_stats.h"

#include <map>
#include <memory>
#include <set>

#include "src/base/string_util.h"
#include "src/kernel/block/block.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/modules/can/can.h"
#include "src/modules/can/can_bcm.h"
#include "src/modules/dm/dm_modules.h"
#include "src/modules/e1000/e1000.h"
#include "src/modules/econet/econet.h"
#include "src/modules/rds/rds.h"
#include "src/modules/snd/snd.h"

namespace eval {
namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Function-pointer types are either struct members ("net_device_ops::...")
// or named callback typedefs (irq_handler_t, timer_fn).
bool IsFnptrType(const std::string& name) {
  return name.find("::") != std::string::npos || EndsWith(name, "_t") || EndsWith(name, "_fn");
}

}  // namespace

AnnotationSurvey RunAnnotationSurvey() {
  kern::Kernel kernel(256ull << 20);
  lxfi::Runtime rt(&kernel);
  lxfi::InstallKernelApi(&kernel, &rt);

  // Substrate devices so every module's init path completes.
  mods::PlugInE1000Device(&kernel);
  kern::BlockLayer* block = kern::GetBlockLayer(&kernel);
  block->CreateRamDisk("disk0", 1024);
  block->CreateRamDisk("cowdev0", 1024);

  struct Entry {
    const char* category;
    kern::ModuleDef def;
  };
  std::vector<Entry> entries;
  entries.push_back({"net device driver", mods::E1000ModuleDef()});
  entries.push_back({"sound device driver", mods::SndIntel8x0ModuleDef()});
  entries.push_back({"sound device driver", mods::SndEns1370ModuleDef()});
  entries.push_back({"net protocol driver", mods::RdsModuleDef()});
  entries.push_back({"net protocol driver", mods::CanModuleDef()});
  entries.push_back({"net protocol driver", mods::CanBcmModuleDef()});
  entries.push_back({"net protocol driver", mods::EconetModuleDef()});
  entries.push_back({"block device driver", mods::DmCryptModuleDef()});
  entries.push_back({"block device driver", mods::DmZeroModuleDef()});
  entries.push_back({"block device driver", mods::DmSnapshotModuleDef()});

  std::map<std::string, const char*> categories;
  std::vector<std::string> order;
  for (Entry& e : entries) {
    categories[e.def.name] = e.category;
    order.push_back(e.def.name);
    kernel.LoadModule(std::move(e.def));
  }

  // uses(): annotated name -> set of modules that touched it at load.
  const auto& uses = rt.annotations().uses();

  AnnotationSurvey survey;
  std::set<std::string> distinct_functions;
  std::set<std::string> distinct_fnptrs;

  for (const std::string& module_name : order) {
    ModuleAnnotationStats stats;
    stats.module = module_name;
    stats.category = categories[module_name];
    for (const auto& [name, users] : uses) {
      if (users.count(module_name) == 0) {
        continue;
      }
      bool unique = users.size() == 1;
      if (IsFnptrType(name)) {
        ++stats.fnptrs_all;
        stats.fnptrs_unique += unique ? 1 : 0;
        distinct_fnptrs.insert(name);
      } else {
        ++stats.functions_all;
        stats.functions_unique += unique ? 1 : 0;
        distinct_functions.insert(name);
      }
    }
    survey.modules.push_back(stats);
  }
  survey.total_distinct_functions = distinct_functions.size();
  survey.total_distinct_fnptrs = distinct_fnptrs.size();
  survey.capability_iterators = rt.iterators().size();
  return survey;
}

std::string FormatSurveyTable(const AnnotationSurvey& survey) {
  std::string out;
  out += lxfi::StrFormat("%-22s %-14s %10s %10s %10s %10s\n", "Category", "Module", "fn all",
                         "fn uniq", "fptr all", "fptr uniq");
  for (const auto& m : survey.modules) {
    out += lxfi::StrFormat("%-22s %-14s %10llu %10llu %10llu %10llu\n", m.category.c_str(),
                           m.module.c_str(), static_cast<unsigned long long>(m.functions_all),
                           static_cast<unsigned long long>(m.functions_unique),
                           static_cast<unsigned long long>(m.fnptrs_all),
                           static_cast<unsigned long long>(m.fnptrs_unique));
  }
  out += lxfi::StrFormat("%-22s %-14s %10llu %21llu\n", "Total (distinct)", "",
                         static_cast<unsigned long long>(survey.total_distinct_functions),
                         static_cast<unsigned long long>(survey.total_distinct_fnptrs));
  out += lxfi::StrFormat("Capability iterators: %llu\n",
                         static_cast<unsigned long long>(survey.capability_iterators));
  return out;
}

}  // namespace eval
