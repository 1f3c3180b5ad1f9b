"""THINC core: translation layer, command queues, delivery, scaling."""

from .client import ClientCostModel, THINCClient
from .miniclient import MiniClient
from .command_queue import CommandQueue
from .delivery import ClientBuffer
from .fanout import BroadcastPlane, TileWall
from .governor import AdmissionDenied, Budget, Governor, ServerBudget
from .pipeline import PreparePlane
from .resize import DisplayScaler, resample, scale_rect
from .scheduler import FIFOScheduler, SRSFScheduler
from .server import ServerCostModel, THINCServer
from .session_unit import FrozenSession, SessionUnit
from .translation import THINCDriver

__all__ = [
    "MiniClient",
    "ServerCostModel",
    "AdmissionDenied",
    "Budget",
    "ServerBudget",
    "Governor",
    "CommandQueue",
    "ClientBuffer",
    "BroadcastPlane",
    "TileWall",
    "SRSFScheduler",
    "FIFOScheduler",
    "PreparePlane",
    "THINCDriver",
    "THINCServer",
    "SessionUnit",
    "FrozenSession",
    "THINCClient",
    "ClientCostModel",
    "DisplayScaler",
    "resample",
    "scale_rect",
]
