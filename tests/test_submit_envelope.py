"""The submit envelope: what ``OnlineSession.submit`` builds and checks per arrival.

Every arrival builds a :class:`Request`, checks it against the instance
(:meth:`Instance.validate_request`), lets the algorithm record an
``Assignment`` in the state and returns an :class:`AssignmentEvent`.  The
three frozen records (``Request``, ``Facility``, ``AssignmentEvent``) have a
written-out ``__init__`` that stores the fields in one pass over the instance
dict.  These tests pin, with exact ``==``:

* the events and finalized costs of every registered online algorithm on
  three scenarios and two seeds, as SHA-256 digests: ``uniform`` and
  ``clustered`` recorded before the envelope was trimmed, the tie-prone
  ``ties`` instance before the single-commodity helpers dropped their own
  facility lists (a tie that moved between a helper's slot order and the
  state's facility-id order would show only here).  The
  production-vs-oracle grids cannot see such a change: both of their sides
  run through the same session, and the oracle changed with production;
* the same digests on seven more metric spaces, recorded while a metric
  that had built its pairwise matrix kept it and read distances from it:
  graph, tree, an explicit matrix, the single point (through its scenario),
  and a Euclidean, line and grid space whose ``pairwise_matrix()`` was
  called before the session started;
* the same runs with the stock telemetry attached: the event digests do not
  move (telemetry is passive), and the final ``telemetry_summary()`` of
  each run, a function of its events alone, matches a SHA-256 digest
  recorded before the wall-clock ``latency`` probe was deleted (with that
  probe's entry left out);
* the generated surface of the three records: fields, ``==`` and ``hash``
  for positional and keyword builds, ``repr``, ``dataclasses.replace``,
  pickling, ``deepcopy`` and ``FrozenInstanceError``, and the checks the
  constructors of ``Request`` and ``Facility`` run, with their messages;
* the exception type and message of every rejected submit, that a rejected
  submit changes nothing, and the coercion of accepted inputs (NumPy ints,
  floats, a one-shot generator);
* :meth:`Instance.validate_request` and
  :meth:`FacilityCostFunction.normalize_configuration`, which test a whole
  set at once and walk it only to name the first commodity out of range.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import inspect
import json
import pickle

import numpy as np
import pytest

from repro.api.components import ALGORITHMS
from repro.api.session import AssignmentEvent, OnlineSession
from repro.core.commodities import CommodityUniverse
from repro.core.facility import Facility
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.costs.count_based import PowerCost
from repro.costs.general import PerPointScaledCost
from repro.exceptions import (
    AlgorithmError,
    InvalidCostFunctionError,
    InvalidInstanceError,
)
from repro.metric.factories import (
    random_euclidean_metric,
    random_graph_metric,
    random_grid_metric,
    random_tree_metric,
    uniform_line_metric,
)
from repro.metric.line import LineMetric
from repro.metric.matrix import ExplicitMetric
from repro.scenarios import ScenarioSession

# ---------------------------------------------------------------------------
# Golden event digests
# ---------------------------------------------------------------------------
#: The algorithms that need |S| = 1.
SINGLE_COMMODITY = {"meyerson-ofl", "fotakis-ofl"}

#: "algorithm/scenario/seed" -> SHA-256 over every event's to_dict() (JSON,
#: sorted keys) and the finalized (opening, connection, total, facilities).
GOLDEN_EVENT_DIGESTS = {
    "always-large-greedy/clustered/0": "2457f5a6def98715e54c68b49f372c9da6482670b950952f50f3939f0a1aa339",
    "always-large-greedy/clustered/1": "da7a816118dbcab4aa16bef696d24b423e5c45c8d46397598a5819612142c89c",
    "always-large-greedy/ties/0": "6c5d51a5503c30b801858f96b2446deaef5c6c78b528826949f74a955a4c73ac",
    "always-large-greedy/ties/1": "bcf22170539e7707d0434b4f0ce546ee37c199530f61b66b74af36557ec25e56",
    "always-large-greedy/uniform/0": "1670f57f164c87a524a579fdf17518b30950d3c7a6e79680dacde8ff00703e3d",
    "always-large-greedy/uniform/1": "71420604762d35377cdb498323bc227ae7f806f02deb17f70357e2378fc92b63",
    "fotakis-ofl/clustered/0": "69c049901f39bcfe965399aaaef7312ae63a0a406069a47d5edddc34ce367279",
    "fotakis-ofl/clustered/1": "68a7242075b5bd25f15c496b3f5b49db9c48f4ddee4abd7aface2bdef588bd3b",
    "fotakis-ofl/ties/0": "7a1305e39c8f0206a1a6baee9d3bfa3c378a05ca10873a9230d5cd8f72a32bd6",
    "fotakis-ofl/ties/1": "c021c1b622cc41b0a9704d40547edd1ddee11a391e7b4ac3be532319981e1e59",
    "fotakis-ofl/uniform/0": "b1b3f24f169f42781208d7a0726851fff760fa308b0fe9eaf7132e26650725ec",
    "fotakis-ofl/uniform/1": "c2bd96dda3da0376700eb830456e523feca12bbb0da482d14cab2c401b9420ff",
    "meyerson-ofl/clustered/0": "d0d42378b081a01ce0b85a2a4763a948a101d662f4ca7b6a210ef9f9b2ab0441",
    "meyerson-ofl/clustered/1": "6bf3ab83acb44481fb8d037df88b39b5cddfbb5d61544e5ad051db2d948c792f",
    "meyerson-ofl/ties/0": "1f9bb7908c2463d0f3eaba4e0484cb2e3b162ce687f2dae1570d84ca303a1e6b",
    "meyerson-ofl/ties/1": "eccf71218875363824a3c84341e06233f7b11dff99274dd5c599a3e8d0e732da",
    "meyerson-ofl/uniform/0": "7626d50a127014e1b46b0ecf5a8710bafc85a952ec78e503834e13b8228be77b",
    "meyerson-ofl/uniform/1": "80a204bb4885d5141b3b269a49275cf7524ae9824c561377c618644500ea1d7e",
    "no-prediction-greedy/clustered/0": "d5f41116c5bdaefa8294c2cbc442d67cb811a03a282f79ee2eadfea8ccc531a9",
    "no-prediction-greedy/clustered/1": "3748b6396971bd905f3ae2510e7941efe6eca1f69794b8063de73822bb02c40f",
    "no-prediction-greedy/ties/0": "df8855540073efda7fd15958033641b508051424c80cdd81a8b842a67e1b1c5a",
    "no-prediction-greedy/ties/1": "b5f51ff2dbc919f8446d5373ee2a762c605a8cdec3c4248b062d135aa92418ae",
    "no-prediction-greedy/uniform/0": "d3ff7f00727d5d7e8e1b3043104dc6682488a401ebb6fe04201fd01a5073b17d",
    "no-prediction-greedy/uniform/1": "0cc986d6f3aeec7cbaa3f74102e15d2b01fe5fafae68cd41bc5fc405f98e0eb4",
    "pd-omflp/clustered/0": "dd11b95bc57737715206cc66df83b19559ec40ea338885ed81924789bf6accaa",
    "pd-omflp/clustered/1": "0a74fca007ea67a940d15a3db97157c513983b8c99db043ec4651482e8029e2d",
    "pd-omflp/ties/0": "9c7cffd1e2b222207158d0b2490ce7cce84321703b1ceff05798101d2a68af60",
    "pd-omflp/ties/1": "14b60ece83a82abb113e09ff44b703677ce271c5958fbfebb6ddee681029ca02",
    "pd-omflp/uniform/0": "63be8e3e6a1d1a9b718513bfad3a1a474d18d255a5a05caeaed30a220ab515f8",
    "pd-omflp/uniform/1": "cd6f9ed3b325e9d981ccfe88fb988af91fede762a614423433c58a87befc3844",
    "per-commodity-fotakis/clustered/0": "403e376e63837cebef25610bf92d1832863084cdbe8667a5401369aa3cd87010",
    "per-commodity-fotakis/clustered/1": "41a69774d6f2c2dda3ab3131a277551028f67b6bfb51a79a91e11f437836d399",
    "per-commodity-fotakis/ties/0": "5a3fe01c912d5022534be762fce4869f90fbfa3540828a8ed24f0c8c24a63d6e",
    "per-commodity-fotakis/ties/1": "c56e5afb3c80079eb3f955047343b221fd142103e7574a2aa49a707daa811b36",
    "per-commodity-fotakis/uniform/0": "d5fe1d5e405437ea1dcfc47948462e15e9193e6578dd4822543f164a3d398e92",
    "per-commodity-fotakis/uniform/1": "d34fdefe6f80717ac4240ec1d9242cbe07e44ac1954bad02c12089d95f7f96eb",
    "per-commodity-meyerson/clustered/0": "bde1d2490377466e9391dfa08d4a798e1221f6e387f061ada7db3b6a9364e668",
    "per-commodity-meyerson/clustered/1": "253c540f63eadde88ca80ec1915476b84bd503bc4efb8eccefb67c0ad0d107cd",
    "per-commodity-meyerson/ties/0": "9828b40a56ff62ee6a3ad611fd173e9cdd0a603ed6c0a0923d2cb02de599c6a4",
    "per-commodity-meyerson/ties/1": "2f978dd4bd99b6f84be54b6381fa558064ec3945b773455b50dadf2e29059614",
    "per-commodity-meyerson/uniform/0": "267d1b79d3bec0ac888be56f7d52b5ac5a23d398be47b957b2e7891883c98cc4",
    "per-commodity-meyerson/uniform/1": "4f43a8a9569001b7b38ef8d27e9bf77f8ab7e1608df53a32f04e108d10e3bada",
    "rand-omflp/clustered/0": "599dfdf774ccdb2871fe771fd588a520f33e4c0122eb6a8eb585d7d4e2c76d8c",
    "rand-omflp/clustered/1": "bb05bad92e968cd7d70365daaf4ec8a16e278910cfbf0b6d3ebf9571289085f4",
    "rand-omflp/ties/0": "e48b5a132aa48fcc5da937a66eab9db3fe2ec78b54182804f4edfc9c2231f09b",
    "rand-omflp/ties/1": "9f91c8eeca1627a0793e43b2deae801fcdca936eb93f6143528ba4f490a6ca8c",
    "rand-omflp/uniform/0": "7d7a4b92187528b8cc5ae78f3ae546068f809e2ce0070f7149b4577f9cbc076c",
    "rand-omflp/uniform/1": "a7a99670657fe2ce029e34ddb33f68490329eafc01465066159bd33661d8115c",
    "threshold-pd/clustered/0": "d1c5edc0144cbd938ff2ceeb9ac6e6f6d0c422db79685495d4aedcb8767d3c9b",
    "threshold-pd/clustered/1": "8a98bfd8ea871aa2211f46967a0e7611c85b7a6b832279309a68054042487e55",
    "threshold-pd/ties/0": "9996a32dc7d22528ab5fb7db69848c832c79988785ef086f38a134770996b012",
    "threshold-pd/ties/1": "1da01285729b20bb6a9f5aaa6047dafb0191b11ba5d6b8618d285d5058fdabc0",
    "threshold-pd/uniform/0": "929a581ad3c7cdd90c417a5540cc59f0c0bb5f7b80fca83ba3ff7dd4fcb4f2bc",
    "threshold-pd/uniform/1": "6bf58ed1f891be479ceeeaf2d810cf593ab5c9990400512a51d93f5d5734a116",
}


#: "algorithm/scenario/seed" -> SHA-256 of the final telemetry_summary()
#: (JSON, sorted keys) of the same run with ``telemetry=True``.
GOLDEN_TELEMETRY_DIGESTS = {
    "always-large-greedy/clustered/0": "03b11878d420d6e7bcdc31e3c09d768b83cfbd61f805edf0dc86ea507a99e6a4",
    "always-large-greedy/clustered/1": "08e20a9059e0a46544231ff2674ca2031943a73b0314b481831eb766aa2953bd",
    "always-large-greedy/ties/0": "5bff790c7cc683550047bd4c09cb50673d3fdcb3de8455f91783a6e453d1de0b",
    "always-large-greedy/ties/1": "b10a8a39a3d3f5f92fe49513348d19871d04c440899a1bc40b8e712d7e0ad663",
    "always-large-greedy/uniform/0": "46e3f147ad038f7ceb34d17b5df469d9017711ac5390573a0b16376fbba3559e",
    "always-large-greedy/uniform/1": "1ff43891dae064a41dc1d0cb004abc3b98d04c95b05118f5054d37de732555a7",
    "fotakis-ofl/clustered/0": "7bf8dc838566dcc999d0ad7f09a3428e33f3868a443f83656ce7788504d5b15c",
    "fotakis-ofl/clustered/1": "345d7a0d97572def5a24df28e622b29bb51832696af12bdb868a89b03e2b45ab",
    "fotakis-ofl/ties/0": "7a9258bb67b91715a0a8793e661d33882d64aac28470eee31f51f02e1b728ada",
    "fotakis-ofl/ties/1": "7a9258bb67b91715a0a8793e661d33882d64aac28470eee31f51f02e1b728ada",
    "fotakis-ofl/uniform/0": "b43de7083f0602ba2ff3148baa67caf1d6916ca97e56f682bdb62fd65850516f",
    "fotakis-ofl/uniform/1": "b1828a0dfc589ac3765197a0838cfef8046f11c4af7196d0cabc548038279403",
    "meyerson-ofl/clustered/0": "524c670e91c4012305fe3b78513b4ca2bc06371b608709056dc927f810662cbd",
    "meyerson-ofl/clustered/1": "393f6229dd8cd4c535d66d6f7edf2161748875dd4c745f4a0e8dacc991e89132",
    "meyerson-ofl/ties/0": "9203d0344dc28b1fbba517a8dd966842e5345f4164f09f404874f2e3143cc006",
    "meyerson-ofl/ties/1": "719c273344061cce51110b736cb557e386c4b5fa61c7654831f35f388981caa3",
    "meyerson-ofl/uniform/0": "ca0822aad1ea7d4b4075ae56c8edc91f067018cf50d41c806817d4c068a1d079",
    "meyerson-ofl/uniform/1": "265e2786409ff8dddb0feae9716ce14aee6b2257382231df195c4dfd1c61f9cc",
    "no-prediction-greedy/clustered/0": "b25a253a12320599b5093d74e6d81aaf9d491358c4e870d78d3e503a64124cdc",
    "no-prediction-greedy/clustered/1": "22ccb90079516db963b5fc971490ee44174d874bc399fa67f4a8ff297da85fa3",
    "no-prediction-greedy/ties/0": "df175004d2ef74eeac6e3f84709123f4453f74b14c5f7a04f2fd1121bb414a85",
    "no-prediction-greedy/ties/1": "6da60b23f99ed68e47f4a4b695e187cf864599ca204460369b75fa8aa6071035",
    "no-prediction-greedy/uniform/0": "e0be27ab5bf3b56d6e1f8854f132a98fc883d1681124b0a1cac145e544fdebfe",
    "no-prediction-greedy/uniform/1": "5135527c94cc67df13fe8e5714d9fb4bdd6daf1a37a7b3f3d3b86d91ccc1d4fc",
    "pd-omflp/clustered/0": "1db2578723064a6e01cd4f00c94666956eb4ef5a3a867158e29dfb2205a6a217",
    "pd-omflp/clustered/1": "afb0af40604114ef723debe240a87ce79fa8c41a69faa375702ba577e4301515",
    "pd-omflp/ties/0": "1368c73ea7f0281fee1dd0969d6a5a9cf7d4242b8e7cfe5b492cc8e39e9075e8",
    "pd-omflp/ties/1": "e9016939cf2af5a086061697c0d80bca2f7789784859c435b84f5188c9a2b217",
    "pd-omflp/uniform/0": "faecff0fb9547c5ba9905c682905ca1facd869eae01b7b7c6332017abee79969",
    "pd-omflp/uniform/1": "7423376d25cf3ecb52a2bfa8ceb57b35eab4b8a8df177a03dc5972812b5cdd6f",
    "per-commodity-fotakis/clustered/0": "b73a54a919d6d1144826d745496a8f5b2c0c8b900c932db494c3219a29f70377",
    "per-commodity-fotakis/clustered/1": "987ae5f4cd2d824bcc84fce1f6b7052afd91ebd67bd47e5fff79643310fd46fa",
    "per-commodity-fotakis/ties/0": "1686830fbfa1c873611a3be71f83a00d9b38def3b1fc8d4111abfbd298df5f4d",
    "per-commodity-fotakis/ties/1": "00083972d545729faee75c24bf17fb6f24c59dc96598c633642bfcb4b7c161de",
    "per-commodity-fotakis/uniform/0": "2c2ecd0a809b45c8b702fe9a091e2d0a25c313d2371820c69d2c4a34cbd7c337",
    "per-commodity-fotakis/uniform/1": "19753e7f4629cfcb8de8cf91aed8861e5c35c9badd0142e45d35128c23c14700",
    "per-commodity-meyerson/clustered/0": "4716c641927e09705353ae67319f0585ee955a67733d59ab7f8e24a568d3640e",
    "per-commodity-meyerson/clustered/1": "07c06ea52ce53d38c83a044b20a92f35d47c5b96a30c91a501051356c56f4d2c",
    "per-commodity-meyerson/ties/0": "9b3913f4ae5e5e16cb425b902de40d128630751a44027b5fabe666165ddbafd5",
    "per-commodity-meyerson/ties/1": "ad6f47c35d1e01fc617e7459c7bc3c4ec347fae605401ee37b2676d547d5ff7e",
    "per-commodity-meyerson/uniform/0": "eb9b9d48ff2cdd6ce389a3c5ed1b45a32b1d32dfa61f04e47997cbfa63456dbd",
    "per-commodity-meyerson/uniform/1": "71ddad26bdb86352a41125aa8dc0330513575658d5dc50001b98168fc69c25d7",
    "rand-omflp/clustered/0": "fd360a7ea0a4c1ea88bfd4c0c29cc4c70193620ce03831da423499c55fa63ab0",
    "rand-omflp/clustered/1": "4aca8c7766354d1514fb7c1530c2fac04bec4051dfc3a6e8dd7ec72396150621",
    "rand-omflp/ties/0": "fe5b1d1ec11633a1834275ad9bea98b8e705191ea7c88a54f470404a312730e6",
    "rand-omflp/ties/1": "c3b6eacd06036a7afb95f0023a56dff5ff1465dd64447bd471f1d5f0e041138d",
    "rand-omflp/uniform/0": "8433bf0b52431065d9a05c0ce4141f0ceb5f2b06863dddfabd2d097e289e7af8",
    "rand-omflp/uniform/1": "c077ba034e81bd2a4678907b7a893290ac7bed19802c477ab75999ac5ead1abf",
    "threshold-pd/clustered/0": "246d2e11ff0d5a59dfa99b9e5079ab50b9282bb5940e1b29ca5258d801ceb76b",
    "threshold-pd/clustered/1": "d28c823c7a93785f0af608fe3c24f5204d56125522a678faa0df129f1fdfb11c",
    "threshold-pd/ties/0": "08a2b89b1099b6dc5e280d58263b490caf9855da15f0458e2c8c0027d27986a7",
    "threshold-pd/ties/1": "a779ad21f01306665411ecb4911591f77f9bc1c1810f9e33ab2ca8b23131b1aa",
    "threshold-pd/uniform/0": "9642b5757aa69cf275e1363824c2b523ca46cee03d6eeb59c1e117071dd0b333",
    "threshold-pd/uniform/1": "66fbee4f96ff1616d10fd13b20b1e92612a53a69c323d53b04079ce18288578c",
}


#: The metric spaces of the space grid: the matrix-backed ones, and the
#: coordinate ones once their pairwise_matrix() has been built.
SPACES = ("graph", "tree", "single-point", "explicit", "euclidean-after-matrix",
          "line-after-matrix", "grid-after-matrix")

#: "algorithm/space/seed" -> the same digest as GOLDEN_EVENT_DIGESTS, for
#: every online algorithm on each of SPACES (``single-point`` through its
#: scenario, the others through drawn arrivals).
GOLDEN_SPACE_DIGESTS = {
    "always-large-greedy/euclidean-after-matrix/0": "c8a71d86345d8a0415bc6cf80902f21c19387b28a93a45a8fe5fe650ef84abe4",
    "always-large-greedy/explicit/0": "223793cef4d9065b83901a4abf55cc8043a62f855d0f3b582ea6a26688f321f1",
    "always-large-greedy/graph/0": "9a56ca9ac342f880886e392a06dae66ab19ec0655918b992665fc861d196765f",
    "always-large-greedy/grid-after-matrix/0": "a58d2c3386221cadad5481fff21abeda6c3d0728a96616a2c66ad91b16b6cdda",
    "always-large-greedy/line-after-matrix/0": "6c5d51a5503c30b801858f96b2446deaef5c6c78b528826949f74a955a4c73ac",
    "always-large-greedy/single-point/0": "0d8a8aa974b583455be508eea96c654d92e89a308141023af9ec42f5d64b7e82",
    "always-large-greedy/tree/0": "fb97bb0342cfb9f4e5213482ec49795d5ad64f364c36aa42363918ebf18fd978",
    "fotakis-ofl/euclidean-after-matrix/0": "c98e4eccaf75d879ef09691fbf0aeabcda8ae463a16362fbbe3635db8561afdc",
    "fotakis-ofl/explicit/0": "86a4af7660c246d89dfdbb65db2d49abed4077b0223786b3c30236ac40651cf2",
    "fotakis-ofl/graph/0": "182d260845ae1b36e780a1520c3836f0c32364e0fbf29f255637e39bd60e4e65",
    "fotakis-ofl/grid-after-matrix/0": "7836d4234639fcfad015a123f958604aaa28b35d5a4f00e43b61edce737aaa5d",
    "fotakis-ofl/line-after-matrix/0": "7a1305e39c8f0206a1a6baee9d3bfa3c378a05ca10873a9230d5cd8f72a32bd6",
    "fotakis-ofl/single-point/0": "76c1ece44b48515157351a4aa14a64c77fb32959f1af04f77fd76504eea52b76",
    "fotakis-ofl/tree/0": "2b653ef7d2899f3a72e24ce484dd6ab41c401999e0e18a6f34b34c297cbebe6c",
    "meyerson-ofl/euclidean-after-matrix/0": "cffd79b6fa1facc892dc465313eccfebf3ddbfe7f7aac1c44d23596963e9e78d",
    "meyerson-ofl/explicit/0": "3803587469cd382119febf4d47de967bd401d0de8a043f6fac722c761d855c3f",
    "meyerson-ofl/graph/0": "89a33b210a61c45eaff50545ae114c7175fe6b17c98188523e35f2c914df1444",
    "meyerson-ofl/grid-after-matrix/0": "66d0afc599bc56beab6905cd8f4fdf0a07a92ac16e4194b4498c44db71b2a2e7",
    "meyerson-ofl/line-after-matrix/0": "1f9bb7908c2463d0f3eaba4e0484cb2e3b162ce687f2dae1570d84ca303a1e6b",
    "meyerson-ofl/single-point/0": "76c1ece44b48515157351a4aa14a64c77fb32959f1af04f77fd76504eea52b76",
    "meyerson-ofl/tree/0": "0db3b85dc26ed93d013c016e27ae999fc1f6e86a1984cc893a06a7d1653f2bf2",
    "no-prediction-greedy/euclidean-after-matrix/0": "2e25d791c7153bbaab346d6df45892b3b2d608bde60dae5b16d5c55391248426",
    "no-prediction-greedy/explicit/0": "30a54b5c8cd020c15f142310fc0fc6e2b0b71215756881afb8dea6fba09e1d7d",
    "no-prediction-greedy/graph/0": "f080b02772c08b0464e4374df62c7cf8b78784c250c287c1527c7f7b4fd44981",
    "no-prediction-greedy/grid-after-matrix/0": "c1f379d232fd3341e222e57e19532618fa47a77386cf7206f41d48427b3dbfc4",
    "no-prediction-greedy/line-after-matrix/0": "df8855540073efda7fd15958033641b508051424c80cdd81a8b842a67e1b1c5a",
    "no-prediction-greedy/single-point/0": "73a69a72f84a52d6e7d128473fb4035f97602dbe2b99280a2b8565ff52d8de2f",
    "no-prediction-greedy/tree/0": "531113cbdf26ded80e6b22f5626d7f293ca239940ebae0d889bb939850f84d09",
    "pd-omflp/euclidean-after-matrix/0": "550b4cf8790ef1244fff4c7d02c4fc44ea3d0a79cf64765fb03a35468452fbb9",
    "pd-omflp/explicit/0": "2fa4df122fdbd43db6cc437709f38279eb2281350ab6f94312b89e87670c46b3",
    "pd-omflp/graph/0": "54653da195327abaed2237d05aa02e6490ac79f6a63e2724278939545d9ba914",
    "pd-omflp/grid-after-matrix/0": "07d8cf92462a46ea632f6940c3ddcff9e11f9d3e6be06ed372597cad6aac5273",
    "pd-omflp/line-after-matrix/0": "9c7cffd1e2b222207158d0b2490ce7cce84321703b1ceff05798101d2a68af60",
    "pd-omflp/single-point/0": "73a69a72f84a52d6e7d128473fb4035f97602dbe2b99280a2b8565ff52d8de2f",
    "pd-omflp/tree/0": "5c68008b8905bab755bf16cdc02d4d5c06cfbf1df0f56240cd86760634dba2f1",
    "per-commodity-fotakis/euclidean-after-matrix/0": "385cbf681e4bc8f0666194d1cf02ced8bb74c6fe6d0a090ab4825cdaf84290af",
    "per-commodity-fotakis/explicit/0": "7eddb13aa76179a9d54a1e03151c3f523e4f3779784bb02c6f988f42cc033c45",
    "per-commodity-fotakis/graph/0": "a98194c94ce2428f256b645db1c46e975ab2edb9e2f4d70607599903ab571a06",
    "per-commodity-fotakis/grid-after-matrix/0": "85166a5c9fb199c8185a605be840f0bdbc45dd98488b29eb21f02ac4f5c75f18",
    "per-commodity-fotakis/line-after-matrix/0": "5a3fe01c912d5022534be762fce4869f90fbfa3540828a8ed24f0c8c24a63d6e",
    "per-commodity-fotakis/single-point/0": "73a69a72f84a52d6e7d128473fb4035f97602dbe2b99280a2b8565ff52d8de2f",
    "per-commodity-fotakis/tree/0": "8b2e21b1e46833614ea02ea229033b7bdc23ee52f10ba14e03273f5742f11838",
    "per-commodity-meyerson/euclidean-after-matrix/0": "990c4e0fe9fc25c21d7b8ca4d5e93b532d56181a60b6dfab19c706daa9f94a77",
    "per-commodity-meyerson/explicit/0": "a9d167661e42980185824239880c912c782efe74416b0d5323558016f1f6a4fa",
    "per-commodity-meyerson/graph/0": "d70d76dce1a9653c847bd1a0d135d3cfe6c52453fb8e6051b6ef88d28adfe426",
    "per-commodity-meyerson/grid-after-matrix/0": "f66d7fa628455376f17fce26b7edd54cb57b4488b6fe50ca66804cf4446cd1f3",
    "per-commodity-meyerson/line-after-matrix/0": "9828b40a56ff62ee6a3ad611fd173e9cdd0a603ed6c0a0923d2cb02de599c6a4",
    "per-commodity-meyerson/single-point/0": "73a69a72f84a52d6e7d128473fb4035f97602dbe2b99280a2b8565ff52d8de2f",
    "per-commodity-meyerson/tree/0": "a4d8589ce32cb17ffe621d4dbf5895022f384b965332d64b9e52efdf2d6b0723",
    "rand-omflp/euclidean-after-matrix/0": "5e3faaebdc47bbee9f7b46a97e89bfe4a73c42fc3df565d34713761995035d11",
    "rand-omflp/explicit/0": "0332dbfedff785314c7b73b7a5e583be27025cebe554270cf975049cd07f09b4",
    "rand-omflp/graph/0": "7d46f8998bea8c1913421ceeda1e6949ea3047c6a2b05064fd7522ad72eba435",
    "rand-omflp/grid-after-matrix/0": "503e3864cff7d96b075f06ed70b785d5abce8182af9b929db2038eaf67c6ca82",
    "rand-omflp/line-after-matrix/0": "e48b5a132aa48fcc5da937a66eab9db3fe2ec78b54182804f4edfc9c2231f09b",
    "rand-omflp/single-point/0": "9a1e5fbfdd61fead65cc0a6ae622944b8357316c9891b3365e38e43b3eaf7536",
    "rand-omflp/tree/0": "17bd3d710f0ddf67d7ff68d6e5911bf27b520cc813b0514a8d63ee5f82a52675",
    "threshold-pd/euclidean-after-matrix/0": "9a01b8d9633e24bf30b5c3e509fbbfbb7fafeba06cc8c72a676db3705a0dcb28",
    "threshold-pd/explicit/0": "57e33467ea9b1386c736aeeac9b4fe57bcd33ee15e678fa826ff0460cb540cdc",
    "threshold-pd/graph/0": "7da31432bea1fd7bad8f5815d35ef067775ff5a6ba77c3951c22c721bb6099a5",
    "threshold-pd/grid-after-matrix/0": "48107b65efb8cd652896a0e80983a7a652df57b65d66f1184c3b413b87bb2e09",
    "threshold-pd/line-after-matrix/0": "9996a32dc7d22528ab5fb7db69848c832c79988785ef086f38a134770996b012",
    "threshold-pd/single-point/0": "73a69a72f84a52d6e7d128473fb4035f97602dbe2b99280a2b8565ff52d8de2f",
    "threshold-pd/tree/0": "4eff54314ec12ec2a31797738d8695ba33693ed3e129fe828fb444e01fed9192",
}


def _scenario(kind: str, num_commodities: int) -> dict:
    if kind == "uniform":
        return {"kind": "uniform", "num_commodities": num_commodities, "num_points": 24,
                "num_requests": 40}
    if kind == "single-point":
        return {"kind": "single-point", "num_commodities": num_commodities,
                "subset_size": max(1, num_commodities - 1), "rounds": 10}
    return {"kind": "clustered", "num_commodities": num_commodities, "num_clusters": 3,
            "points_per_cluster": 6, "num_requests": 40}


#: The "ties" instance: integer coordinates on a line with repeated points,
#: and per-point cost scales with zeros and repeats, so distances, cost
#: classes and opening levels tie exactly and tie-breaks decide the run.
TIE_COORDINATES = [0, 0, 1, 3, 3, 3, 4, 6, 6, 7, 9, 9]
TIE_SCALES = [0.0, 1.0, 1.0, 0.0, 2.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 1.0]


def _after_matrix(metric):
    """``metric`` once its ``pairwise_matrix()`` has been built."""
    metric.pairwise_matrix()
    return metric


def _scales(num_points: int) -> list:
    return [float(1 + point % 3) for point in range(num_points)]


#: Spaces served by drawn arrivals: name -> a builder of (metric, per-point
#: cost scales).  Each call builds a fresh metric.
DRAWN_SPACES = {
    "ties": lambda: (LineMetric(TIE_COORDINATES), TIE_SCALES),
    "graph": lambda: (random_graph_metric(14, edge_probability=0.25, rng=21), _scales(14)),
    "tree": lambda: (random_tree_metric(14, rng=22), _scales(14)),
    "explicit": lambda: (
        ExplicitMetric(random_graph_metric(14, rng=23).pairwise_matrix()), _scales(14)
    ),
    "euclidean-after-matrix": lambda: (
        _after_matrix(random_euclidean_metric(14, rng=24)), _scales(14)
    ),
    "line-after-matrix": lambda: (_after_matrix(LineMetric(TIE_COORDINATES)), TIE_SCALES),
    "grid-after-matrix": lambda: (
        _after_matrix(random_grid_metric(14, width=4, height=4, rng=25)), _scales(14)
    ),
}


def _drawn_events(algorithm, space: str, seed: int, num_commodities: int, telemetry) -> tuple:
    """The events of 40 arrivals drawn with ``seed`` (so points repeat) on a
    :data:`DRAWN_SPACES` space, and the session that served them."""
    metric, scales = DRAWN_SPACES[space]()
    session = OnlineSession(
        algorithm,
        metric,
        PerPointScaledCost(PowerCost(num_commodities, 1.0), scales),
        commodities=CommodityUniverse(num_commodities),
        rng=seed,
        telemetry=telemetry,
    )
    draws = np.random.default_rng(seed)
    events = []
    for _ in range(40):
        point = int(draws.integers(metric.num_points))
        size = int(draws.integers(1, num_commodities + 1))
        events.append(
            session.submit(point, draws.choice(num_commodities, size, replace=False).tolist())
        )
    return events, session


def _served(name: str, kind: str, seed: int, telemetry=None) -> tuple:
    """The events of one case and the session that served them."""
    num_commodities = 1 if name in SINGLE_COMMODITY else 3
    params = (
        {"num_commodities": num_commodities, "excluded": [0]} if name == "threshold-pd" else {}
    )
    if kind in DRAWN_SPACES:
        return _drawn_events(
            ALGORITHMS.build(name, **params), kind, seed, num_commodities, telemetry
        )
    session = ScenarioSession(
        {
            "algorithm": {"kind": name, **params} if params else name,
            "scenario": _scenario(kind, num_commodities),
            "seed": seed,
        },
        telemetry=telemetry,
    )
    return session.advance(), session


def _event_digest(events, session) -> str:
    """SHA-256 over the events and the finalized costs (finalizes ``session``)."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(json.dumps(event.to_dict(), sort_keys=True).encode())
    record = session.finalize()
    digest.update(
        repr(
            (record.opening_cost, record.connection_cost, record.total_cost,
             record.num_facilities)
        ).encode()
    )
    return digest.hexdigest()


def test_the_digest_grid_covers_every_online_algorithm():
    assert {key.split("/")[0] for key in GOLDEN_EVENT_DIGESTS} == set(ALGORITHMS.names())
    assert set(GOLDEN_TELEMETRY_DIGESTS) == set(GOLDEN_EVENT_DIGESTS)
    assert set(GOLDEN_SPACE_DIGESTS) == {
        f"{name}/{space}/0" for name in ALGORITHMS.names() for space in SPACES
    }


@pytest.mark.parametrize("case", sorted(GOLDEN_EVENT_DIGESTS))
def test_events_and_costs_match_the_golden_digest(case):
    name, kind, seed = case.split("/")
    assert _event_digest(*_served(name, kind, int(seed))) == GOLDEN_EVENT_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_SPACE_DIGESTS))
def test_every_space_matches_the_golden_digest(case):
    name, space, seed = case.split("/")
    assert _event_digest(*_served(name, space, int(seed))) == GOLDEN_SPACE_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_TELEMETRY_DIGESTS))
def test_telemetry_is_passive_and_matches_the_golden_digest(case):
    name, kind, seed = case.split("/")
    events, session = _served(name, kind, int(seed), telemetry=True)
    assert _event_digest(events, session) == GOLDEN_EVENT_DIGESTS[case]
    summary = json.dumps(session.telemetry_summary(), sort_keys=True)
    assert hashlib.sha256(summary.encode()).hexdigest() == GOLDEN_TELEMETRY_DIGESTS[case]


# ---------------------------------------------------------------------------
# The records' generated surface
# ---------------------------------------------------------------------------
#: (class, positional arguments, repr of the built record, a replacement).
RECORDS = [
    pytest.param(
        Request,
        (3, 5, frozenset({2, 0})),
        "Request(index=3, point=5, commodities=frozenset({0, 2}))",
        {"point": 7},
        id="request",
    ),
    pytest.param(
        Facility,
        (1, 4, frozenset({1}), 2.5),
        "Facility(id=1, point=4, configuration=frozenset({1}), opening_cost=2.5)",
        {"opening_cost": 3.0},
        id="facility",
    ),
    pytest.param(
        AssignmentEvent,
        (3, 5, frozenset({0, 2}), (1, 4), 0.5, 1.25, 3.0, 7.5),
        "AssignmentEvent(request_index=3, point=5, commodities=frozenset({0, 2}), "
        "facility_ids=(1, 4), opening_cost_delta=0.5, connection_cost=1.25, "
        "opening_cost_so_far=3.0, connection_cost_so_far=7.5)",
        {"connection_cost": 2.0},
        id="event",
    ),
]

FIELDS = {
    Request: ("index", "point", "commodities"),
    Facility: ("id", "point", "configuration", "opening_cost"),
    AssignmentEvent: (
        "request_index", "point", "commodities", "facility_ids", "opening_cost_delta",
        "connection_cost", "opening_cost_so_far", "connection_cost_so_far",
    ),
}


@pytest.mark.parametrize("cls,args,text,change", RECORDS)
def test_records_keep_their_dataclass_surface(cls, args, text, change):
    names = FIELDS[cls]
    assert tuple(field.name for field in dataclasses.fields(cls)) == names
    assert tuple(inspect.signature(cls).parameters) == names
    positional = cls(*args)
    keyword = cls(**dict(zip(names, args)))
    assert positional == keyword and hash(positional) == hash(keyword)
    assert positional != cls(*args[:1], args[1] + 1, *args[2:])
    assert repr(positional) == text
    assert dataclasses.astuple(positional) == args

    replaced = dataclasses.replace(positional, **change)
    assert type(replaced) is cls
    assert {name: getattr(replaced, name) for name in names} == {
        **dict(zip(names, args)), **change
    }

    for copied in (pickle.loads(pickle.dumps(positional)), copy.deepcopy(positional)):
        assert type(copied) is cls and copied == positional
        assert hash(copied) == hash(positional) and repr(copied) == text

    with pytest.raises(dataclasses.FrozenInstanceError):
        positional.point = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del positional.point
    assert positional == keyword


def test_replace_runs_the_checks_again():
    request = Request(0, 2, frozenset({1}))
    with pytest.raises(InvalidInstanceError, match="^request point must be non-negative, got -1$"):
        dataclasses.replace(request, point=-1)
    facility = Facility(0, 2, frozenset({1}), 1.0)
    with pytest.raises(InvalidInstanceError, match="^a facility must offer at least one"):
        dataclasses.replace(facility, configuration=[])


#: (arguments, error message or the repr of the built record).
REQUEST_BUILDS = [
    ((-1, 0, [0]), "request index must be non-negative, got -1"),
    ((0, -2, [0]), "request point must be non-negative, got -2"),
    ((0, 0, []), "request 0 demands no commodities"),
    ((-1, 0, []), "request index must be non-negative, got -1"),
    ((0, 1, [1, 0]), "Request(index=0, point=1, commodities=frozenset({0, 1}))"),
    ((0, 1, (2,)), "Request(index=0, point=1, commodities=frozenset({2}))"),
    ((0, 1, {1}), "Request(index=0, point=1, commodities=frozenset({1}))"),
]

FACILITY_BUILDS = [
    ((-1, 0, [0], 1.0), "facility id must be non-negative, got -1"),
    ((0, -1, [0], 1.0), "facility point must be non-negative, got -1"),
    ((0, 0, [], 1.0), "a facility must offer at least one commodity"),
    ((0, 0, [0], -0.5), "opening cost must be non-negative, got -0.5"),
    ((-1, -1, [], -1.0), "facility id must be non-negative, got -1"),
    ((0, 1, [1, 0], 2.0),
     "Facility(id=0, point=1, configuration=frozenset({0, 1}), opening_cost=2.0)"),
]


@pytest.mark.parametrize(
    "cls,args,expected",
    [(Request, *case) for case in REQUEST_BUILDS] + [(Facility, *case) for case in FACILITY_BUILDS],
)
def test_constructors_check_and_convert_like_before(cls, args, expected):
    if expected.startswith(cls.__name__ + "("):
        built = cls(*args)
        assert repr(built) == expected
        assert type(getattr(built, FIELDS[cls][2])) is frozenset
    else:
        with pytest.raises(InvalidInstanceError) as error:
            cls(*args)
        assert str(error.value) == expected


def test_a_one_shot_generator_is_frozen_once():
    request = Request(0, 1, (e for e in [3, 2]))
    assert request.commodities == frozenset({2, 3})
    facility = Facility(0, 1, (e for e in [1]), 0.0)
    assert facility.configuration == frozenset({1})


# ---------------------------------------------------------------------------
# Submit: errors, coercion, and nothing changed by a rejected submit
# ---------------------------------------------------------------------------
def _session() -> OnlineSession:
    return OnlineSession(
        ALGORITHMS.build("pd-omflp"), uniform_line_metric(8), PowerCost(4, 1.0), rng=0
    )


def _int_of_none_message() -> str:
    """What ``int(None)`` raises; the wording moved between Python versions."""
    try:
        int(None)  # type: ignore[arg-type]
    except TypeError as error:
        return str(error)
    raise AssertionError("int(None) did not raise")


_INT_OF_NONE = _int_of_none_message()

#: (point, commodities, error type, message): what each rejected submit raised
#: before the envelope was trimmed.  The conversions run first (the point's,
#: then the commodities'), then Request's checks, then the instance's.
REJECTED_SUBMITS = [
    pytest.param(-1, [0], InvalidInstanceError, "request point must be non-negative, got -1",
                 id="negative-point"),
    pytest.param(8, [0], InvalidInstanceError, "request 0 is located at unknown point 8",
                 id="point-out-of-range"),
    pytest.param("x", [0], ValueError, "invalid literal for int() with base 10: 'x'",
                 id="point-string"),
    pytest.param(None, [0], TypeError, _INT_OF_NONE, id="point-none"),
    pytest.param(1, [], InvalidInstanceError, "request 0 demands no commodities",
                 id="empty-commodities"),
    pytest.param(1, [0, 4], InvalidInstanceError, "commodity 4 out of range [0, 4)",
                 id="commodity-out-of-range"),
    pytest.param(1, [-1], InvalidInstanceError, "commodity -1 out of range [0, 4)",
                 id="commodity-negative"),
    pytest.param(1, [5, -2], InvalidInstanceError, "commodity 5 out of range [0, 4)",
                 id="first-bad-commodity-in-set-order"),
    pytest.param(1, ["x"], ValueError, "invalid literal for int() with base 10: 'x'",
                 id="commodity-string"),
    pytest.param(1, [None], TypeError, _INT_OF_NONE, id="commodity-none"),
    pytest.param(1, 3, TypeError, "'int' object is not iterable", id="commodities-not-iterable"),
    pytest.param(-1, [], InvalidInstanceError, "request point must be non-negative, got -1",
                 id="point-sign-before-empty"),
    pytest.param(9, [7], InvalidInstanceError, "request 0 is located at unknown point 9",
                 id="point-range-before-commodity-range"),
    pytest.param(9, [], InvalidInstanceError, "request 0 demands no commodities",
                 id="empty-before-point-range"),
    pytest.param(-1, ["x"], ValueError, "invalid literal for int() with base 10: 'x'",
                 id="conversion-before-point-sign"),
    pytest.param("y", ["x"], ValueError, "invalid literal for int() with base 10: 'y'",
                 id="point-converted-first"),
]


@pytest.mark.parametrize("point,commodities,error,message", REJECTED_SUBMITS)
def test_a_rejected_submit_raises_what_it_raised_and_changes_nothing(
    point, commodities, error, message
):
    session = _session()
    with pytest.raises(error) as raised:
        session.submit(point, commodities)
    assert type(raised.value) is error and str(raised.value) == message
    assert session.num_requests == 0 and session.state.num_recorded == 0
    assert (session.opening_cost, session.connection_cost) == (0.0, 0.0)
    event = session.submit(1, [0])
    assert event.request_index == 0


def test_a_submit_after_finalize_is_refused():
    session = _session()
    session.submit(1, [0])
    session.finalize()
    with pytest.raises(AlgorithmError, match="^cannot submit to a finalized session$"):
        session.submit(1, [0])


def test_numpy_ints_are_coerced_to_int():
    event = _session().submit(np.int64(2), [np.int64(1), np.int32(0)])
    assert type(event.point) is int
    assert {type(commodity) for commodity in event.commodities} == {int}
    assert repr(event) == (
        "AssignmentEvent(request_index=0, point=2, commodities=frozenset({0, 1}), "
        "facility_ids=(0, 1), opening_cost_delta=2.0, connection_cost=0.0, "
        "opening_cost_so_far=2.0, connection_cost_so_far=0.0)"
    )


def test_floats_truncate_like_int():
    event = _session().submit(3.0, [1.0, True])
    assert type(event.point) is int
    assert repr(event) == (
        "AssignmentEvent(request_index=0, point=3, commodities=frozenset({1}), "
        "facility_ids=(0,), opening_cost_delta=1.0, connection_cost=0.0, "
        "opening_cost_so_far=1.0, connection_cost_so_far=0.0)"
    )


def test_a_one_shot_generator_submits_its_commodities():
    event = _session().submit(3, (e for e in [2, 1]))
    assert event.commodities == frozenset({1, 2})
    assert event.facility_ids == (0, 1)


def test_each_event_reports_the_running_totals():
    session = _session()
    before = (0.0, 0.0)
    for index, (point, commodities) in enumerate([(1, [0, 1]), (6, [2]), (1, [0]), (7, [3])]):
        event = session.submit(point, commodities)
        after = session.state.current_costs()
        assert after == (session.opening_cost, session.connection_cost)
        assert (event.opening_cost_so_far, event.connection_cost_so_far) == after
        assert event.opening_cost_delta == after[0] - before[0]
        assert event.connection_cost == after[1] - before[1]
        assert event.request_index == index
        before = after


# ---------------------------------------------------------------------------
# Instance.validate_request and normalize_configuration
# ---------------------------------------------------------------------------
#: (requests as (point, commodities), None or the error message).
INSTANCE_REQUESTS = [
    ([(1, [0, 3])], None),
    ([(8, [0])], "request 0 is located at unknown point 8"),
    ([(1, [4, 0])], "commodity 4 out of range [0, 4)"),
    ([(1, [-3])], "commodity -3 out of range [0, 4)"),
    ([(1, [0]), (2, [9])], "commodity 9 out of range [0, 4)"),
    ([(9, [9])], "request 0 is located at unknown point 9"),
    ([(1, [float("nan")])], "commodity nan out of range [0, 4)"),
    # Values the universe's range check lets through still pass.
    ([(1, [2.5])], None),
    ([(2.5, [0])], None),
]


@pytest.mark.parametrize("requests,message", INSTANCE_REQUESTS)
def test_validate_request_names_what_it_named(requests, message):
    sequence = RequestSequence(
        [Request(index, point, frozenset(c)) for index, (point, c) in enumerate(requests)]
    )

    def build():
        return Instance(uniform_line_metric(8), PowerCost(4, 1.0), sequence)

    if message is None:
        assert build().num_requests == len(requests)
    else:
        with pytest.raises(InvalidInstanceError) as error:
            build()
        assert str(error.value) == message


#: (configuration, sorted result, or (error type, message)).
CONFIGURATIONS = [
    ([2, 0], [0, 2]),
    ((np.int64(3), np.int32(1)), [1, 3]),
    ([True], [1]),
    ([1.9, 0.2], [0, 1]),
    ([], []),
    ((e for e in [3, 2]), [2, 3]),
    ([5, 1], (InvalidCostFunctionError, "commodity 5 out of range [0, 4)")),
    ([-1], (InvalidCostFunctionError, "commodity -1 out of range [0, 4)")),
    ([5, -2], (InvalidCostFunctionError, "commodity 5 out of range [0, 4)")),
    ([2**70], (InvalidCostFunctionError, f"commodity {2**70} out of range [0, 4)")),
    (["x"], (ValueError, "invalid literal for int() with base 10: 'x'")),
    ([None], (TypeError, _INT_OF_NONE)),
    (3, (TypeError, "'int' object is not iterable")),
]


@pytest.mark.parametrize("configuration,expected", CONFIGURATIONS)
def test_normalize_configuration_keeps_its_results_and_errors(configuration, expected):
    cost = PowerCost(4, 1.0)
    if isinstance(expected, list):
        config = cost.normalize_configuration(configuration)
        assert type(config) is frozenset and sorted(config) == expected
        assert {type(commodity) for commodity in config} <= {int}
    else:
        error, message = expected
        with pytest.raises(error) as raised:
            cost.normalize_configuration(configuration)
        assert str(raised.value) == message
