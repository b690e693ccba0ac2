"""Controller substrate: config registers, instruction set, compiler,
interpreter — ProTEA's runtime-programmability machinery."""

from .compiler import ProgramStats, compile_program, program_stats
from .controller import (
    REGISTER_MAP,
    ConfigRegisterFile,
    ResynthesisRequiredError,
    SynthParams,
)
from .instructions import Instruction, Opcode, decode, encode
from .interpreter import ExecutionTrace, Interpreter, UnhandledOpcodeError

__all__ = [
    "Opcode",
    "Instruction",
    "encode",
    "decode",
    "SynthParams",
    "ConfigRegisterFile",
    "ResynthesisRequiredError",
    "REGISTER_MAP",
    "compile_program",
    "program_stats",
    "ProgramStats",
    "Interpreter",
    "ExecutionTrace",
    "UnhandledOpcodeError",
]
