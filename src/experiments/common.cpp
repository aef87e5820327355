/**
 * @file
 * Shared experiment-registration helpers.
 */

#include "experiments/common.hpp"

#include <sstream>

namespace lruleak::experiments {

timing::Uarch
uarchFromParams(const core::ParamMap &params)
{
    try {
        return timing::uarchFromName(params.getStr("uarch"));
    } catch (const std::invalid_argument &e) {
        throw core::ParamError(std::string("parameter 'uarch': ") +
                               e.what());
    }
}

std::vector<channel::ChannelId>
parseChannels(const std::string &list)
{
    std::vector<channel::ChannelId> out;
    std::string token;
    auto flush = [&] {
        if (token.empty())
            return;
        try {
            out.push_back(channel::channelIdFromName(token));
        } catch (const std::invalid_argument &e) {
            throw core::ParamError(std::string("parameter 'channels': ") +
                                   e.what());
        }
        token.clear();
    };
    for (char c : list) {
        if (c == ',')
            flush();
        else if (c != ' ')
            token += c;
    }
    flush();
    if (out.empty())
        throw core::ParamError(
            "parameter 'channels': at least one channel is required");
    return out;
}

std::vector<sim::ReplPolicyKind>
parsePolicies(const std::string &list)
{
    std::vector<sim::ReplPolicyKind> policies;
    std::string token;
    std::stringstream ss(list);
    while (std::getline(ss, token, ','))
        policies.push_back(sim::replPolicyFromName(token));
    if (policies.empty())
        throw core::ParamError("parameter 'policies': at least one "
                               "replacement policy is required");
    return policies;
}

std::vector<double>
sampleLatencies(const std::vector<channel::Sample> &s, std::size_t limit)
{
    std::vector<double> out;
    out.reserve(std::min(limit, s.size()));
    for (std::size_t i = 0; i < s.size() && i < limit; ++i)
        out.push_back(s[i].latency);
    return out;
}

} // namespace lruleak::experiments
