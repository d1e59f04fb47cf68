"""FaultPlan JSON round-trip — the replay-artifact plan format."""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FaultPlan,
    LinkFault,
    PacketCorruption,
    Partition,
    RecircExhaustion,
    SwitchFailover,
    WorkerCrash,
    WorkerSlowdown,
    event_from_dict,
    event_to_dict,
)
from repro.live.chaos import sample_scenario as live_scenario
from repro.sim.core import ms
from repro.sim.rng import RngStreams
from repro.verify.fuzzer import plan_for
from repro.verify.fuzzer import sample_scenario as sim_scenario

EVERY_EVENT_KIND = [
    LinkFault(start_ns=ms(1), end_ns=ms(2), loss_prob=0.2, duplicate_prob=0.1),
    LinkFault(start_ns=ms(1), end_ns=ms(3), nodes=("worker0", "client0")),
    PacketCorruption(start_ns=ms(2), end_ns=ms(4), corrupt_prob=0.1),
    PacketCorruption(
        start_ns=ms(2),
        end_ns=ms(4),
        nodes=("worker1",),
        truncate_prob=0.5,
        max_bit_flips=5,
    ),
    Partition(start_ns=ms(1), end_ns=ms(2), nodes=("worker0",)),
    WorkerCrash(at_ns=ms(3), node_id=1, restart_after_ns=ms(2)),
    WorkerCrash(at_ns=ms(3), node_id=2),  # permanent: None restart
    WorkerSlowdown(start_ns=ms(1), end_ns=ms(5), node_id=0, factor=3.0),
    SwitchFailover(at_ns=ms(4)),
    RecircExhaustion(start_ns=ms(2), end_ns=ms(3), queue_packets=2),
]


class TestEventDictCodec:
    @pytest.mark.parametrize(
        "event", EVERY_EVENT_KIND, ids=lambda e: type(e).__name__
    )
    def test_round_trip(self, event):
        payload = event_to_dict(event)
        assert payload["kind"] == type(event).__name__
        assert event_from_dict(payload) == event

    def test_nodes_tuple_survives_as_tuple(self):
        event = Partition(start_ns=0, end_ns=1, nodes=("a", "b"))
        payload = event_to_dict(event)
        assert payload["nodes"] == ["a", "b"]  # JSON-friendly list
        restored = event_from_dict(payload)
        assert restored.nodes == ("a", "b")  # hashable tuple again

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault event"):
            event_from_dict({"kind": "MeteorStrike", "at_ns": 0})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            event_from_dict(
                {"kind": "SwitchFailover", "at_ns": 0, "severity": 11}
            )

    def test_invalid_event_rejected_on_decode(self):
        # decode re-validates: a window that ends before it starts is
        # rejected even though the JSON itself is well-formed
        with pytest.raises(Exception):
            event_from_dict(
                {"kind": "Partition", "start_ns": 10, "end_ns": 5, "nodes": []}
            )


class TestPlanJson:
    def test_round_trip_all_kinds(self):
        plan = FaultPlan(list(EVERY_EVENT_KIND))
        restored = FaultPlan.from_json(plan.to_json())
        assert list(restored) == list(plan)
        # and the round-trip is a fixed point
        assert restored.to_json() == plan.to_json()

    def test_empty_plan(self):
        assert list(FaultPlan.from_json(FaultPlan([]).to_json())) == []

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_missing_events_rejected(self):
        with pytest.raises(ConfigurationError, match="events"):
            FaultPlan.from_json('{"plan": []}')

    def test_fuzzed_plans_round_trip(self):
        # the fuzzer grammar's output must survive the artifact format
        for seed in range(10):
            rng = RngStreams(seed).stream("plan")
            plan = FaultPlan.fuzzed(rng, ms(12), worker_nodes=[0, 1, 2])
            assert list(FaultPlan.from_json(plan.to_json())) == list(plan)


class TestFuzzedGrammar:
    def test_same_seed_same_plan(self):
        a = FaultPlan.fuzzed(
            RngStreams(7).stream("plan"), ms(12), worker_nodes=[0, 1, 2]
        )
        b = FaultPlan.fuzzed(
            RngStreams(7).stream("plan"), ms(12), worker_nodes=[0, 1, 2]
        )
        assert list(a) == list(b)

    def test_event_cap_respected(self):
        for seed in range(20):
            rng = RngStreams(seed).stream("plan")
            plan = FaultPlan.fuzzed(
                rng, ms(12), worker_nodes=[0, 1], max_events=4
            )
            assert 1 <= len(plan) <= 4

    def test_one_worker_always_survives(self):
        # permanent crashes are budgeted: the grammar may kill at most
        # n-1 workers for good, or recovery would be impossible
        for seed in range(40):
            rng = RngStreams(seed).stream("plan")
            plan = FaultPlan.fuzzed(rng, ms(12), worker_nodes=[0, 1, 2])
            permanent = {
                e.node_id
                for e in plan
                if isinstance(e, WorkerCrash) and e.restart_after_ns is None
            }
            assert len(permanent) < 3


# sha256 of ``plan_json`` per seed 0..19, recorded at the commit before
# the sim and live grammars were merged into one FaultPlan.fuzzed. The
# grammar's draw order is a replay contract: every fuzz artifact and CI
# seed pin depends on a seed yielding byte-identical plans forever.
GOLDEN_PLAN_SHA256 = {
    ("sim", 1): [
        "b18d56cac88b8e08059ee10055b7ce6032b5aba4ef9b5cbc9f3c494f313bcc5e",
        "5a3c78cccfc8ad67c53caa9c0351cf71ef7baf658f11bf636679af4a2196b52f",
        "9345ffa4b5bebadc00f614d5c15f33557d86fc35e8c3580d38e0dcef86736c96",
        "4451444ff2bc5ddfd153ab6f4e92fe806df63a5346ced83ff0f6a0a7d42eef1f",
        "a6620f560e4663367a7cab39cc619b2e5772ae77503b61ddcdecb368c9f9c741",
        "ee6de982710bf5eeb5cc5044bc777dc69953c288f0a0fbf148687eef0db3f3b0",
        "a0088961b2a786d64a35a6c3653ea71fc6ea4dc927045bf03722fa1c7b474012",
        "3edb2691d25ba988fc50291de345171115ae423424715a9e7f6b30ec258131a8",
        "37d0f02cd67ac12ea1df41aa2d3a67de4117e2bb60dffbfa217675e68796f81b",
        "311827910b37c51b7a91aeccaa1a6a2f3aab63653ccbc52b6282673098d0d189",
        "20afb441eec57c1d4d80f8294d6c8610bb2935ff166f1af8c211ce9210330785",
        "3c5da187ea89882b75d3fd7aebf70ea7076351419b3c8ed05b549bd737afd705",
        "62058015e812644db127fbd6c8416af0e35a3cc93dd22eaa9539cf743a106ff0",
        "da4741f6c7ebeab1a78a1015d91bf9847956d50210d3d5428c45c11561530e13",
        "473070218c4870098291f3cdd39ead13a1b3cf16de0a8e8baddbe3b6b95fce61",
        "efe53cec01cf60577037581b3c9d33fc9a962ac1a1056ad99140019b72178ad0",
        "949acb3007e1313119894940cc982313af5cac12532c1f127af473e082c91e60",
        "b07f2accf79b72c4008bedf28f18d80710e86ebf3b83f6011cb4b68d4f470e61",
        "aa88470d945d947cee6737928513501abad32054211063a2bdaeb9a05c51e5c2",
        "7ed0fee320447b13aa72bb30c4e5ccf16ba53a0cdfb6a4dbc588a382f8e6181b",
    ],
    ("sim", 3): [
        "eae4ac66a354181f2625498ce9ceb54da55787e4c58d7bac70eff5373b4c8693",
        "70bec07b75bcfd8309018ef24a5ad9d54c392502839c314b6cfa9f081afc812d",
        "6fa01473ceeaa49154e72d9835911e5cd53eaa27cce5c3272bf21ebe48cc7993",
        "74910c45f2b6980899974a26e198aa1aaa2447ddfa7fe74afe70d27e31ad29a4",
        "7228bacff4fac9247532a39c2a8a2cee7cf05813df86c4ae62e511ef2b556ad9",
        "bced0a29df334b03d7456523e1b68c1d478b7678f490db0830c3eb3b15080050",
        "3691b3bd2742dfe202775e9b1041aca384c168b6041182059d9325f093c4198a",
        "17705b26157820c890d821ce1154987664a750d45a5f2a1e85597d567611811b",
        "767d1093681446b131ca4c161736493c87265dce96b25942b1750ac8022419f5",
        "068793c2d828fe0cf0d621dac6e91643e4240eaae195984b4656d5447a51cb43",
        "253430f82acfbeedf28483777d916790e042e9d5f3e2300c46a99f85c98a74a0",
        "6c96e803cb688c2cd8ca7438aef9c4306ec35c7293d8972a9d9bd14d4c4fc06c",
        "28c2087a725c2e0c9c3a07c653db075ea56ba8e8ece1df94ccf4b305ef17037f",
        "304b35e9fb13e69f787df2826df14a2a7402d41bd0e6a7d305e3376d2eea4310",
        "2cbc8ab67430bd814438784e64a1330f07411350c6f2048bf83ed818b75fa9cd",
        "827c3f3801c47f209674f8354bfaa99bf6671d2741bfc452b94c8e253c85cb38",
        "5614278a8686d9701896749b04ade7d8f46de1a26110a877d6d7913cbb28758d",
        "52266230d6be4751bdc3888c3ad186367d7a2e4295e7a801a07f6c5493754912",
        "6502c213d0e86f5907df021411ba5917e3bbe502898c9030f958756a9bf60820",
        "fd8a64fbbfd84b806c157d1e154bd334983a1beb34c6c84cffb15fa2a1b89d95",
    ],
    ("live", 0): [
        "816b8ce2fa890cec616f04a524ede4280e986409d6fbac79ba1686604996b342",
        "d5709e678ffc8d60ba424fa6aedcf450068a655c244b67e62a931437dd026179",
        "90afd7d923686bf9984e56b2e8341dd139b8ae8df11f1eae31ec8ebcd507f596",
        "f21cf8033a22a9b058cab1adc60567126a3bc5e7e3299af6c4e7da4b25bb7af5",
        "27cb6458efde0e7841668ff6ceb1a0512fec396c2ea546eb605f5acdd5f27579",
        "b3a0b1f9b7c4f3f1f04201bbb8cda1dbb317287719bf480833b773ca9d24ddd9",
        "625bf9373c67c89bd9983fe7f58cf76c0d9bcd0ed689e7ae20341a782a246500",
        "c7d44cabdc44762faf0b08ef99afca1792f8df937992fd5c6b8017095ebcfa5d",
        "bcf2bfcee28fb95dea318b0ce667f8f7075f770bfe92fcf5d6642c575923e010",
        "1034dbfc4cf8f2ea70d06e669d6f9b2ae7af0c24c19113a0a60a6539654f4c07",
        "af0e6fd6c72069239b76d156aa60e7671d2d25ccb2dafde521f47d3ccd1e5eb5",
        "3f6e8110ef03c158297e6a34b6cf74ae2fbef296a199a2ad8840bae18daf8605",
        "1326ab4031b271c7bee296a3438d87d7e0413800d72132fbf3beb6960ab969e8",
        "6ed94379dc0b55d722e1bc2d507bc609e6c43bd2286e5fab46d568485db86643",
        "cd721d9b1e06467f8e6d4e8b9b90ccc4d23814e9781528aeda701910dbf38b8a",
        "c5f2d080c8bf1baf42edac114760a3347cccd9559301cb6ad1e5e4774ef4182e",
        "c8b41fac8e2fb7d08b03daebfa689b0f27289f7c002d4170b36910ad2ccf14ef",
        "c0cc6ebb8e90cdcfcc0ac83abe30c8ada766b9ef5581779b4c88ca74b7170a3f",
        "fdffac9d0591fc4cb8ab0da0e40a48614ee41c0261405bca9c113cfe32ee59b1",
        "639b00d50602da10edb8c197ebfbb4466339670adf3fd8f8e2c953a2401305d7",
    ],
    ("live", 3): [
        "b0af14a6e6c729325755a759549c56bef4869d06df2f79f3c7c233cffeede283",
        "ddc61b7a9faa45597da8157099f9def982c4bf50930977d89063468df0916d11",
        "06d4cb9b993a6a0016fc7b37c854b480ac1cad1882f56184b99e6410892fcf5b",
        "6947bdc015968df7cc9922186605e5386d7c7025da2b6ba370196f850a9b118e",
        "ae8a54ea72c5cb7536b1ec4a080913ae0c6ce81a09c4df63fb81989e0d73bbe7",
        "545a4ff1dbb6848e191cff66e8709418ff7c9d2e1619f9d63839f8605115492f",
        "8611bd9eda5691e85d7404421010e03c0b2a5666afdb4f9d6635176e49f1e5d2",
        "0e9f2406c9fb0d74cb2a13e8db50a363c63593edf657f392888dfe17df15e2ba",
        "0b8ed7e7e34d8eb29ebd1b61f834ef5a54e5eea0db07f5578c409a3c7163e9d5",
        "680e8f353c045e92354dbe2370015ee915d90fccc88f3a3b621d7e0254d22258",
        "46c0c5d842915f14c81846cbeaa456cb6e8318256d08be26fb91884a5f8961a9",
        "a3d9d5796864aa7c14a96a59c679fe485f7c9479f9491cd82cb93acc881e1937",
        "1fcd7368fea6947012ea51bd188b37f5ef3e631fd969aa93d10ec242d117ad17",
        "719f0db1097b3b0d2617893fd73ff045b9632becef43adb6e10b2bc11bf35b50",
        "cd160ea70385a9d89411812f7317cbf82b06ee8ad5eb2a76ab59c0f7afe0aee7",
        "6dfbb3c564ed5a1ead4840f1b7ec7ca29ac685ec2fecdcb379472a8f2bd9df5d",
        "c68c87fb526049a2122d84552f841fd3cd68e4bef72ed4f33781baa74da3d084",
        "0fa409ec15c58949775d1ef71de105fe360ecf10926dc2c701cf97a6e9a4a88e",
        "ad7c5cc62449e722d7c316eb4f12cb65201a499242c783cde6e2c62d848deac4",
        "04ce9d38c835e86a8385a2e46a7e4a4d1be66d3c1d778eeca2060e61f0f40cf0",
    ],
}


def _sampled_plan_json(runtime, replicas, seed):
    if runtime == "sim":
        return plan_for(
            sim_scenario(seed, controller_replicas=replicas)
        ).to_json()
    return live_scenario(seed, controller_replicas=replicas).plan_json


@pytest.mark.parametrize("runtime,replicas", sorted(GOLDEN_PLAN_SHA256))
@pytest.mark.parametrize("seed", range(20))
def test_grammar_golden(runtime, replicas, seed):
    plan_json = _sampled_plan_json(runtime, replicas, seed)
    assert (
        hashlib.sha256(plan_json.encode()).hexdigest()
        == GOLDEN_PLAN_SHA256[runtime, replicas][seed]
    )
