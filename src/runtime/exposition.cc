#include "runtime/exposition.h"

#include <cctype>
#include <cmath>
#include <sstream>

namespace enode {

std::string
prometheusMetricName(const std::string &key, const std::string &ns)
{
    std::string name = ns.empty() ? "" : ns + "_";
    for (char c : key) {
        const bool legal = std::isalnum(static_cast<unsigned char>(c)) ||
                           c == '_' || c == ':';
        name += legal ? c : '_';
    }
    if (!name.empty() && std::isdigit(static_cast<unsigned char>(name[0])))
        name.insert(name.begin(), '_');
    return name;
}

std::string
prometheusText(const StatGroup &group, const std::string &ns)
{
    std::ostringstream os;
    for (const std::string &key : group.keys()) {
        const double value = group.get(key);
        if (!std::isfinite(value))
            continue; // the text format cannot carry NaN/Inf samples
        const std::string name = prometheusMetricName(key, ns);
        os << "# HELP " << name << ' ' << group.name()
           << (group.name().empty() ? "" : " ") << key << '\n';
        os << "# TYPE " << name << ' '
           << (group.kind(key) == StatKind::Counter ? "counter" : "gauge")
           << '\n';
        os << name << ' ' << value << '\n';
    }
    return os.str();
}

} // namespace enode
