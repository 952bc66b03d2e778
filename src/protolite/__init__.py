"""A small dynamic object-oriented language with protected methods.

Protected visibility is decided syntactically -- only self- and super-sends
may activate protected methods -- and enforced without touching method
lookup: a compiler pass renames self/super-send selectors with a reserved
``__`` prefix, installs protected methods under the prefixed name only, and
registers every public method of an affected class under both names. The
package ships two interpreters (a small-step reduction evaluator and a
dictionary-based runtime with lookup caches), a differential test harness,
and memory/cache accounting.
"""

from .bench import (
    BenchConfig,
    BenchReport,
    bench_pair,
    deep_send_workload,
    repeat_main,
)
from .compiler import (
    CompiledMethod,
    CompileMode,
    RuntimeImage,
    SendSite,
    Symbol,
    SymbolTable,
    compile_program,
    desugar_dump,
    install_method,
    protection_roots,
    rewrite_scope,
)
from .errors import (
    AlreadyMangledError,
    BenchConfigError,
    LangError,
    ParseError,
    ProgramInvalidError,
    ReservedSelectorError,
    UnknownClassError,
    UnknownFieldError,
)
from .generator import GeneratorConfig, generate_program
from .metrics import (
    DiffResult,
    MemoryReport,
    differential_run,
    measure_image,
    worst_case_ratios,
)
from .outcomes import (
    ArityMismatch,
    Completed,
    DoesNotUnderstand,
    Errored,
    EvalResult,
    FuelExhausted,
    NilReceiver,
    PrimitiveFailure,
    UnknownClass,
    UnknownField,
    UnknownVariable,
)
from .parser import parse
from .reference import eval_program, step, translate
from .runtime import (
    CacheStats,
    GlobalCache,
    Interpreter,
    RunResult,
    cached_lookup,
    default_lookup,
    run_image,
)
from .syntax import (
    ClassDef,
    Expr,
    MethodDef,
    Program,
    pretty_expr,
    pretty_program,
)
from .validate import HierarchyIndex, Violation, validate
from .values import NIL, IntVal, Nil, Oid, Value

__version__ = "0.1.0"
