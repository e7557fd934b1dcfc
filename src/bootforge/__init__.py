"""bootforge: forge RSA signatures against a flawed PKCS#1 v1.5 parser,
package them into firmware images, and replay the resulting boot-ROM
attack chain in a deterministic simulator — all against self-generated
keys and simulated hardware."""

from .modmath import (
    Console,
    KeyRegistry,
    RsaKeyPair,
    SignatureType,
    generate_keypair,
    mod_exp,
    raw_sign,
    raw_verify,
)
from .sigparser import (
    ParseOutcome,
    ParserConfig,
    ParserMode,
    RejectReason,
    StackModel,
    Verdict,
    exact_hit_probability,
    flawed_parse,
    strict_parse,
)
from .forge import (
    ForgeResult,
    HitProbability,
    SearchWorkerError,
    brute_force_search,
    craft_exploit_plaintext,
    estimate_hit_probability,
    forge_with_private_key,
)
from .firm import (
    CopyMethod,
    FirmImage,
    build_firm,
    fakesign_firm,
    parse,
    serialize,
    sign_firm,
    validate_firm,
)
from .bootsim import (
    BlacklistPolicy,
    BootOutcome,
    BootReport,
    BootSource,
    Machine,
    build_exploit_image,
    run_boot,
    run_exploit_chain,
    run_ntr_install_scenario,
)

__version__ = "0.1.0"
